// Package asciiplot renders small scatter/line charts in the terminal,
// so the figure CSVs produced by cmd/experiments can be eyeballed
// against the paper without any plotting toolchain.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series.
type Series struct {
	Name string
	X, Y []float64
}

// Plot is a chart definition.
type Plot struct {
	Title  string
	XLabel string
	Width  int // plot area columns (default 64)
	Height int // plot area rows (default 16)
	Series []Series
}

// markers cycles through per-series glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart.
func (p Plot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return p.Title + " (no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range p.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(w-1))
			row := h - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(h-1))
			if col < 0 || col >= w || row < 0 || row >= h {
				continue
			}
			grid[row][col] = m
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	for r, line := range grid {
		yval := ymax - (ymax-ymin)*float64(r)/float64(h-1)
		fmt.Fprintf(&b, "%10.3f |%s|\n", yval, string(line))
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", w/2, xmin, w-w/2, xmax)
	if p.XLabel != "" || len(p.Series) > 0 {
		fmt.Fprintf(&b, "%10s  x: %s   ", "", p.XLabel)
		for si, s := range p.Series {
			fmt.Fprintf(&b, "[%c] %s  ", markers[si%len(markers)], s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
