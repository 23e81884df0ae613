package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestLocalBackendIsDefault: NewEngine runs cold cells on the
// in-process pool via its runner.
func TestLocalBackendIsDefault(t *testing.T) {
	var runs atomic.Int64
	eng := NewEngine(2, func(_ context.Context, s Scenario) (Metrics, error) {
		runs.Add(1)
		var m Metrics
		m.Add("v", float64(s.Ranks))
		return m, nil
	})
	if b, ok := eng.Backend.(*LocalBackend); !ok || b.Workers != 2 {
		t.Fatalf("NewEngine backend = %#v, want a 2-worker LocalBackend", eng.Backend)
	}
	c := eng.Run(context.Background(), testScenarios(4), nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("runner executed %d times, want 4", runs.Load())
	}
}

// reportingBackend records what the engine hands a backend and reports
// canned outcomes.
type reportingBackend struct {
	got  [][]Scenario
	skip int // leave the first N cells unreported (contract violation)
}

func (b *reportingBackend) Execute(_ context.Context, scs []Scenario, report ReportFunc) {
	b.got = append(b.got, scs)
	for i := range scs {
		if i < b.skip {
			continue
		}
		var m Metrics
		m.Add("v", float64(scs[i].Ranks))
		report(i, m, nil)
		// Duplicate and out-of-range reports must be harmless.
		report(i, nil, errors.New("duplicate report"))
		report(len(scs)+7, nil, errors.New("out of range"))
	}
}

// TestEngineRoutesColdCellsThroughBackend: only memoizer/cache misses
// reach the backend, results land in grid order, and duplicate or
// out-of-range reports cannot corrupt the campaign.
func TestEngineRoutesColdCellsThroughBackend(t *testing.T) {
	b := &reportingBackend{}
	eng := NewEngine(0, func(context.Context, Scenario) (Metrics, error) {
		t.Error("local runner executed after its backend was replaced")
		return nil, nil
	})
	eng.Backend = b
	scs := testScenarios(3)
	scs = append(scs, scs[0]) // in-campaign duplicate: must not reach the backend
	c := eng.Run(context.Background(), scs, nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || len(b.got[0]) != 3 {
		t.Fatalf("backend saw batches %v, want one batch of the 3 distinct cold cells", b.got)
	}
	for i, r := range c.Results {
		if v, _ := r.Metrics.Get("v"); v != float64(scs[i].Ranks) {
			t.Errorf("result %d metric v = %v, want %v", i, v, float64(scs[i].Ranks))
		}
	}
	if !c.Results[3].Cached {
		t.Error("duplicate scenario not served from the memoizer")
	}

	// A second campaign on the same engine is all-warm: the backend
	// must not be consulted at all.
	before := len(b.got)
	if err := eng.Run(context.Background(), testScenarios(3), nil).Err(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != before {
		t.Error("warm campaign reached the backend")
	}
}

// TestEngineFinalizesUnreportedCells: a backend that drops cells on
// the floor (a bug) must yield loud per-scenario failures, never
// silently absent results.
func TestEngineFinalizesUnreportedCells(t *testing.T) {
	eng := &Engine{Backend: &reportingBackend{skip: 2}}
	c := eng.Run(context.Background(), testScenarios(4), nil)
	var failed int
	for _, r := range c.Results {
		if r.Err != nil {
			failed++
			if !strings.Contains(r.Err.Error(), "backend never reported") {
				t.Errorf("unreported cell error %v, want a backend-bug marker", r.Err)
			}
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed results, want the 2 unreported cells", failed)
	}
}

type panickyBackend struct{}

func (panickyBackend) Execute(context.Context, []Scenario, ReportFunc) { panic("backend exploded") }

// TestEnginePanickingBackend: a backend panic is isolated into
// per-scenario errors carrying the panic value.
func TestEnginePanickingBackend(t *testing.T) {
	eng := &Engine{Backend: panickyBackend{}}
	c := eng.Run(context.Background(), testScenarios(2), nil)
	for _, r := range c.Results {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "backend exploded") {
			t.Errorf("result %s error %v, want the backend panic", r.ID, r.Err)
		}
	}
}

// TestEngineWritesBackendResultsThrough: results computed by a backend
// (i.e. remotely) must write through to the persistent tier exactly
// like local ones.
func TestEngineWritesBackendResultsThrough(t *testing.T) {
	cache := newFakeCache()
	eng := &Engine{Backend: &reportingBackend{}, Cache: cache}
	if err := eng.Run(context.Background(), testScenarios(3), nil).Err(); err != nil {
		t.Fatal(err)
	}
	if n := cache.puts.Load(); n != 3 {
		t.Fatalf("persistent tier received %d writes after a backend campaign, want 3", n)
	}
}

// TestLocalBackendCancellation: the extracted local pool preserves the
// engine's cancellation contract — unstarted cells carry ErrUnstarted
// plus the context error.
func TestLocalBackendCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := &LocalBackend{Workers: 2, Run: func(context.Context, Scenario) (Metrics, error) {
		t.Error("runner executed under a cancelled context")
		return nil, nil
	}}
	var reports atomic.Int64
	scs := testScenarios(3)
	b.Execute(ctx, scs, func(i int, m Metrics, err error) {
		reports.Add(1)
		if !errors.Is(err, ErrUnstarted) || !errors.Is(err, context.Canceled) {
			t.Errorf("cell %d error %v, want ErrUnstarted wrapping context.Canceled", i, err)
		}
	})
	if reports.Load() != 3 {
		t.Fatalf("%d reports, want 3 (every cell accounted for)", reports.Load())
	}
}

// testScenarios builds n distinct scenarios.
func testScenarios(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Scenario{Machine: "m", Ranks: i + 1}
	}
	return out
}
