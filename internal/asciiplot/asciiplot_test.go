package asciiplot

import (
	"math"
	"strings"
	"testing"
)

// line renders a single-series plot.
func line(title, xlabel string, x, y []float64) string {
	return Plot{Title: title, XLabel: xlabel, Series: []Series{{X: x, Y: y}}}.Render()
}

func TestRenderBasic(t *testing.T) {
	out := line("speedup", "ranks", []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	if !strings.Contains(out, "speedup") {
		t.Fatal("title missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 16 {
		t.Fatalf("only %d lines", len(lines))
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data points drawn")
	}
	// Monotone series: the topmost marker must be to the right of the
	// bottom one.
	var first, last int
	for _, l := range lines {
		if i := strings.IndexByte(l, '*'); i >= 0 {
			if first == 0 {
				first = i
			}
			last = i
		}
	}
	if last >= first {
		t.Errorf("increasing series should descend left: top col %d, bottom col %d", first, last)
	}
}

func TestRenderMultiSeries(t *testing.T) {
	p := Plot{
		Title:  "fig5",
		XLabel: "cores",
		Series: []Series{
			{Name: "ST-1", X: []float64{1, 2}, Y: []float64{2, 1}},
			{Name: "NT-1", X: []float64{1, 2}, Y: []float64{1, 1.2}},
		},
	}
	out := p.Render()
	for _, want := range []string{"[*] ST-1", "[o] NT-1", "o", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderDegenerate(t *testing.T) {
	if out := line("empty", "", nil, nil); !strings.Contains(out, "no data") {
		t.Error("empty plot should say so")
	}
	// Constant series must not divide by zero.
	out := line("const", "x", []float64{1, 2, 3}, []float64{5, 5, 5})
	if strings.Contains(out, "NaN") {
		t.Error("NaN leaked into the render")
	}
	// NaN points are skipped.
	out = line("nan", "x", []float64{1, math.NaN(), 3}, []float64{1, math.NaN(), 3})
	if !strings.Contains(out, "*") {
		t.Error("valid points should still draw")
	}
}
