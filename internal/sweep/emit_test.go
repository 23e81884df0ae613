package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func emitBytes(t *testing.T, emit func(io.Writer, Campaign) error, c Campaign) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := emit(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEmittersByteStable: the same grid + seed must render byte-identical
// CSV and JSON regardless of worker count and across repeated runs.
func TestEmittersByteStable(t *testing.T) {
	g := testGrid()
	var wantCSV, wantJSON []byte
	for _, workers := range []int{1, 4, 8, 1, 4, 8} {
		c := runGrid(workers, g, echoRunner)
		csv := emitBytes(t, CSVEmitter{}.Emit, c)
		js := emitBytes(t, JSONEmitter{}.Emit, c)
		if wantCSV == nil {
			wantCSV, wantJSON = csv, js
			continue
		}
		if !bytes.Equal(csv, wantCSV) {
			t.Errorf("workers=%d: CSV output differs:\n%s\nvs\n%s", workers, csv, wantCSV)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("workers=%d: JSON output differs", workers)
		}
	}
}

func TestCSVShape(t *testing.T) {
	c := runGrid(2, testGrid(), echoRunner)
	lines := strings.Split(strings.TrimSpace(string(emitBytes(t, CSVEmitter{}.Emit, c))), "\n")
	if len(lines) != 13 { // header + 12 scenarios
		t.Fatalf("%d CSV lines, want 13", len(lines))
	}
	head := lines[0]
	for _, col := range []string{"id", "machine", "mode", "ranks", "mesh", "threads", "status", "ranks", "machlen", "nt"} {
		if !strings.Contains(head, col) {
			t.Errorf("CSV header %q missing column %q", head, col)
		}
	}
	// Metric column union: mode "a" rows lack the nt metric -> blank cell.
	if !strings.Contains(lines[1], ",ok,") {
		t.Errorf("row 1 %q missing ok status", lines[1])
	}
}

func TestJSONShapeAndErrors(t *testing.T) {
	c := runGrid(2, testGrid(), func(ctx context.Context, s Scenario) (Metrics, error) {
		if s.Machine == "m2" {
			return nil, errors.New("dead machine")
		}
		return echoRunner(ctx, s)
	})
	var out struct {
		Scenarios int `json:"scenarios"`
		Failed    int `json:"failed"`
		Results   []struct {
			ID      string `json:"id"`
			Machine string `json:"machine"`
			Error   string `json:"error"`
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(emitBytes(t, JSONEmitter{}.Emit, c), &out); err != nil {
		t.Fatal(err)
	}
	if out.Scenarios != 12 || out.Failed != 4 {
		t.Fatalf("scenarios=%d failed=%d, want 12/4", out.Scenarios, out.Failed)
	}
	for _, r := range out.Results {
		if r.Machine == "m2" {
			if r.Error == "" || len(r.Metrics) != 0 {
				t.Errorf("failed result %s should carry error and no metrics", r.ID)
			}
		} else if r.Error != "" || len(r.Metrics) == 0 {
			t.Errorf("ok result %s malformed", r.ID)
		}
	}
}

// TestJSONEmitterNonFinite is the regression lock for the NaN bugfix:
// a campaign containing NaN/Inf metrics — which the sweepd wire layer
// deliberately supports via IEEE-754 bits — must emit (the old code
// died with json: unsupported value), rendering non-finite values as a
// null decimal mirror plus authoritative bits, while finite metrics
// keep the historical {"name","value"} shape.
func TestJSONEmitterNonFinite(t *testing.T) {
	var m Metrics
	m.Add("nan", math.NaN())
	m.Add("ninf", math.Inf(-1))
	m.Add("finite", 1.5)
	s := Scenario{Machine: "m0", Mode: Mode{Name: "a"}, Seed: 1}
	c := Campaign{Results: []Result{{Scenario: s, ID: s.ID(), Metrics: m}}}

	out := emitBytes(t, JSONEmitter{}.Emit, c)
	var doc struct {
		Results []struct {
			Metrics []struct {
				Name  string   `json:"name"`
				Value *float64 `json:"value"`
				Bits  string   `json:"bits"`
			} `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, out)
	}
	got := doc.Results[0].Metrics
	if got[0].Value != nil || got[0].Bits == "" {
		t.Errorf("NaN metric = %+v, want null value with bits", got[0])
	}
	if bits := got[1].Bits; bits != "fff0000000000000" {
		t.Errorf("-Inf bits = %q, want fff0000000000000", bits)
	}
	if got[2].Value == nil || *got[2].Value != 1.5 || got[2].Bits != "" {
		t.Errorf("finite metric = %+v, want plain value 1.5 without bits", got[2])
	}
	// Finite-only campaigns must keep their historical bytes: no bits
	// field, value as a bare number.
	finite := runGrid(1, testGrid(), echoRunner)
	if out := emitBytes(t, JSONEmitter{}.Emit, finite); bytes.Contains(out, []byte(`"bits"`)) {
		t.Error("finite campaign emits bits fields; goldens would change")
	}
}

func TestSummaryEmitter(t *testing.T) {
	c := runGrid(2, testGrid(), echoRunner)
	s := string(emitBytes(t, SummaryEmitter{Metric: "ranks"}.Emit, c))
	if !strings.Contains(s, "12 scenarios") {
		t.Errorf("summary missing counts: %q", s)
	}
	if !strings.Contains(s, "ranks by mode") {
		t.Errorf("summary missing chart title: %q", s)
	}
	// One legend entry per mode.
	for _, mode := range []string{" a ", " b "} {
		if !strings.Contains(s, mode) {
			t.Errorf("summary legend missing mode%q", mode)
		}
	}
}

func TestProgressLine(t *testing.T) {
	r := Result{Scenario: Scenario{Machine: "icx", Mode: Mode{Name: "nt"}, Ranks: 8}, ID: "abc123"}
	line := ProgressLine(3, 12, r)
	for _, frag := range []string{"3/12", "abc123", "icx/nt/r8", "ok"} {
		if !strings.Contains(line, frag) {
			t.Errorf("progress line %q missing %q", line, frag)
		}
	}
	r.Err = errors.New("oops")
	if line := ProgressLine(4, 12, r); !strings.Contains(line, "ERROR: oops") {
		t.Errorf("error line %q", line)
	}
}
