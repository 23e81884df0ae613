package cloversim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
)

// quickGrid is a small but real campaign: two machines x two evasion
// modes on a reduced mesh, exercising the full traffic + time-model +
// microbenchmark workload.
func quickGrid() sweep.Grid {
	baseline, _ := sweep.ModeByName("baseline")
	nt, _ := sweep.ModeByName("nt")
	return sweep.Grid{
		Machines: []string{machine.NameICX8360Y, machine.NameCLX8280},
		Modes:    []sweep.Mode{baseline, nt},
		Ranks:    []int{4},
		Threads:  []int{4},
		Meshes:   []sweep.Mesh{{X: 1536, Y: 1536}},
		MaxRows:  8,
		Seed:     0x5eed,
	}
}

// TestCampaignDeterministicOutput: same grid + seed must produce
// byte-identical CSV and JSON regardless of worker count and across
// repeated runs (run with -cpu 1,4,8 in CI to also vary GOMAXPROCS).
func TestCampaignDeterministicOutput(t *testing.T) {
	g := quickGrid()
	var wantCSV, wantJSON []byte
	for _, workers := range []int{1, 4, 0, 1} {
		c := sweep.NewEngine(workers, RunScenarioContext).Run(context.Background(), g.Expand(), nil)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := (sweep.CSVEmitter{}).Emit(&csv, c); err != nil {
			t.Fatal(err)
		}
		if err := (sweep.JSONEmitter{}).Emit(&js, c); err != nil {
			t.Fatal(err)
		}
		if wantCSV == nil {
			wantCSV, wantJSON = csv.Bytes(), js.Bytes()
			continue
		}
		if !bytes.Equal(csv.Bytes(), wantCSV) {
			t.Errorf("workers=%d: CSV not byte-identical:\n%s\nvs\n%s", workers, csv.Bytes(), wantCSV)
		}
		if !bytes.Equal(js.Bytes(), wantJSON) {
			t.Errorf("workers=%d: JSON not byte-identical", workers)
		}
	}
}

// TestRunScenarioMetrics sanity-checks the standard workload's physics:
// the no-evasion baseline (CLX) keeps a serial-like store ratio of 2.0
// while ICX at 4 cores already evades some write-allocates; NT stores
// cut traffic everywhere.
func TestRunScenarioMetrics(t *testing.T) {
	get := func(s sweep.Scenario, name string) float64 {
		t.Helper()
		m, err := RunScenarioContext(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		v, found := m.Get(name)
		if !found {
			t.Fatalf("metric %s missing (have %v)", name, m)
		}
		return v
	}
	nt, _ := sweep.ModeByName("nt")
	base := sweep.Scenario{Machine: "clx", Ranks: 4, Threads: 4,
		Mesh: sweep.Mesh{X: 1536, Y: 1536}, MaxRows: 8, Mode: sweep.Mode{Name: "baseline"}}
	if r := get(base, "store_ratio"); r < 1.95 {
		t.Errorf("CLX (no SpecI2M) store ratio %.3f, want ~2.0", r)
	}
	ntScen := base
	ntScen.Mode = nt
	if r := get(ntScen, "store_ratio"); r > 1.3 {
		t.Errorf("CLX NT store ratio %.3f, want ~1.0x", r)
	}
	icx := base
	icx.Machine = "icx"
	icx.Threads = 36 // full socket: SpecI2M active
	if r := get(icx, "store_ratio"); r > 1.5 {
		t.Errorf("ICX full-socket store ratio %.3f, want evasion < 1.5", r)
	}
	if v := get(base, "bandwidth_gbs"); v <= 0 {
		t.Errorf("bandwidth %.3f must be positive", v)
	}
}

// TestRunScenarioContextRefusesDeadContext: the production runner's
// pre-run check must mark the cell as unstarted (never a genuine
// failure), matching the engine's own dispatch-time marker, so an
// interrupt landing in the dispatch-to-run window still exits 3.
func TestRunScenarioContextRefusesDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := quickGrid().Expand()[0]
	m, err := RunScenarioContext(ctx, sc)
	if m != nil || err == nil {
		t.Fatalf("RunScenarioContext on dead context = %v, %v; want nil metrics and an error", m, err)
	}
	if !errors.Is(err, sweep.ErrUnstarted) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap sweep.ErrUnstarted and context.Canceled", err)
	}
	// A live context runs the real workload.
	if m, err := RunScenarioContext(context.Background(), sc); err != nil || len(m) == 0 {
		t.Errorf("RunScenarioContext with live context = %v, %v; want real metrics", m, err)
	}
}

// TestRunScenarioErrorIsolation: a campaign containing an invalid
// machine reports that scenario's error without losing the others.
func TestRunScenarioErrorIsolation(t *testing.T) {
	g := quickGrid()
	g.Machines = append([]string{"no-such-machine"}, g.Machines...)
	c := sweep.NewEngine(4, RunScenarioContext).Run(context.Background(), g.Expand(), nil)
	failed := c.Failed()
	if len(failed) != 2 { // bogus machine x 2 modes
		t.Fatalf("%d failures, want 2", len(failed))
	}
	for _, r := range failed {
		if !strings.Contains(r.Err.Error(), "no-such-machine") {
			t.Errorf("unexpected error %v", r.Err)
		}
	}
	for _, r := range c.Results {
		if r.Scenario.Machine != "no-such-machine" && r.Err != nil {
			t.Errorf("healthy scenario %s failed: %v", r.Scenario.Label(), r.Err)
		}
	}
}

// TestRunScenarioCaching: an engine with a store as its Cache must not
// re-execute a config hash it has already run.
func TestRunScenarioCaching(t *testing.T) {
	var runs atomic.Int64
	e := sweep.NewEngine(4, func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		runs.Add(1)
		return RunScenarioContext(ctx, s)
	})
	st, err := store.Open(t.TempDir(), PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e.Cache = st
	g := quickGrid()
	e.Run(context.Background(), g.Expand(), nil)
	first := runs.Load()
	if first != int64(g.Size()) {
		t.Fatalf("first campaign ran %d, want %d", first, g.Size())
	}
	c := e.Run(context.Background(), g.Expand(), nil)
	if runs.Load() != first {
		t.Errorf("repeat campaign re-executed: %d runs", runs.Load())
	}
	for _, r := range c.Results {
		if !r.Cached {
			t.Errorf("scenario %s not served from cache", r.Scenario.Label())
		}
	}
}
