package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testGrid is a 12-scenario grid whose runner output depends only on
// the scenario, so campaigns are comparable across worker counts.
func testGrid() Grid {
	return Grid{
		Machines: []string{"m0", "m1", "m2"},
		Modes:    []Mode{{Name: "a"}, {Name: "b", NTStores: true}},
		Ranks:    []int{1, 2},
		Seed:     42,
	}
}

// echoRunner derives metrics purely from the scenario.
func echoRunner(_ context.Context, s Scenario) (Metrics, error) {
	var m Metrics
	m.Add("ranks", float64(s.Ranks))
	m.Add("machlen", float64(len(s.Machine)))
	if s.Mode.NTStores {
		m.Add("nt", 1)
	}
	return m, nil
}

// runGrid executes a grid on a fresh engine without a progress hook.
func runGrid(workers int, g Grid, run Runner) Campaign {
	return NewEngine(workers, run).Run(context.Background(), g.Expand(), nil)
}

func TestResultsInGridOrder(t *testing.T) {
	g := testGrid()
	want := g.Expand()
	for _, workers := range []int{1, 4, 16} {
		c := runGrid(workers, g, echoRunner)
		if len(c.Results) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(c.Results), len(want))
		}
		for i, r := range c.Results {
			if r.Scenario != want[i] {
				t.Errorf("workers=%d: result %d is %s, want %s",
					workers, i, r.Scenario.Label(), want[i].Label())
			}
			if r.ID != want[i].ID() {
				t.Errorf("workers=%d: result %d ID mismatch", workers, i)
			}
		}
	}
}

func TestErrorIsolation(t *testing.T) {
	g := testGrid()
	boom := errors.New("boom")
	c := runGrid(4, g, func(ctx context.Context, s Scenario) (Metrics, error) {
		if s.Machine == "m1" && s.Ranks == 2 {
			return nil, boom
		}
		return echoRunner(ctx, s)
	})
	failed := c.Failed()
	if len(failed) != 2 { // m1 x {a,b} x ranks=2
		t.Fatalf("%d failed scenarios, want 2", len(failed))
	}
	for _, r := range failed {
		if !errors.Is(r.Err, boom) {
			t.Errorf("failure %s carries %v, want boom", r.ID, r.Err)
		}
	}
	// Everyone else still ran.
	ok := 0
	for _, r := range c.Results {
		if r.Err == nil {
			if _, found := r.Metrics.Get("ranks"); !found {
				t.Errorf("successful scenario %s missing metrics", r.ID)
			}
			ok++
		}
	}
	if ok != len(c.Results)-2 {
		t.Errorf("%d ok scenarios, want %d", ok, len(c.Results)-2)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "2 of 12") {
		t.Errorf("campaign error %v should summarize 2 of 12 failures", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	g := Grid{Machines: []string{"ok", "bad"}}
	c := runGrid(2, g, func(ctx context.Context, s Scenario) (Metrics, error) {
		if s.Machine == "bad" {
			panic("kaboom")
		}
		return echoRunner(ctx, s)
	})
	if c.Results[0].Err != nil {
		t.Errorf("healthy scenario failed: %v", c.Results[0].Err)
	}
	if err := c.Results[1].Err; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not isolated into error, got %v", err)
	}
}

func TestCacheHitsViaRunCounter(t *testing.T) {
	g := testGrid()
	var runs atomic.Int64
	e := NewEngine(4, func(ctx context.Context, s Scenario) (Metrics, error) {
		runs.Add(1)
		return echoRunner(ctx, s)
	})
	c1 := e.Run(context.Background(), g.Expand(), nil)
	if got := runs.Load(); got != 12 {
		t.Fatalf("first campaign executed %d scenarios, want 12", got)
	}
	if e.CacheSize() != 12 {
		t.Fatalf("cache holds %d results, want 12", e.CacheSize())
	}
	// Same grid again: every scenario hash hits the cache.
	c2 := e.Run(context.Background(), g.Expand(), nil)
	if got := runs.Load(); got != 12 {
		t.Errorf("second campaign re-executed scenarios: counter %d, want 12", got)
	}
	for i, r := range c2.Results {
		if !r.Cached {
			t.Errorf("second-campaign result %d not served from cache", i)
		}
		if fmt.Sprint(r.Metrics) != fmt.Sprint(c1.Results[i].Metrics) {
			t.Errorf("cached metrics differ at %d", i)
		}
	}
	// A fresh scenario still executes.
	e.Run(context.Background(), Grid{Machines: []string{"new"}}.Expand(), nil)
	if got := runs.Load(); got != 13 {
		t.Errorf("novel scenario should execute once, counter %d, want 13", got)
	}
}

func TestDuplicateScenariosDedupWithinCampaign(t *testing.T) {
	s := Scenario{Machine: "m", Ranks: 4}
	var runs atomic.Int64
	c := NewEngine(4, func(context.Context, Scenario) (Metrics, error) {
		runs.Add(1)
		var m Metrics
		m.Add("v", 1)
		return m, nil
	}).Run(context.Background(), []Scenario{s, s, s}, nil)
	if got := runs.Load(); got != 1 {
		t.Fatalf("duplicate hash executed %d times, want 1", got)
	}
	if c.Results[0].Cached {
		t.Error("first occurrence should be a real execution")
	}
	for i := 1; i < 3; i++ {
		if !c.Results[i].Cached {
			t.Errorf("duplicate %d not marked cached", i)
		}
		if v, found := c.Results[i].Metrics.Get("v"); !found || v != 1 {
			t.Errorf("duplicate %d missing copied metrics", i)
		}
	}
}

func TestFailedScenariosAreNotCached(t *testing.T) {
	g := Grid{Machines: []string{"flaky"}}
	var runs atomic.Int64
	e := NewEngine(1, func(context.Context, Scenario) (Metrics, error) {
		if runs.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return Metrics{{"v", 2}}, nil
	})
	if err := e.Run(context.Background(), g.Expand(), nil).Err(); err == nil {
		t.Fatal("first campaign should fail")
	}
	c := e.Run(context.Background(), g.Expand(), nil) // retry re-executes instead of caching the error
	if err := c.Err(); err != nil {
		t.Fatalf("retry did not re-execute: %v", err)
	}
	if runs.Load() != 2 {
		t.Errorf("runner ran %d times, want 2", runs.Load())
	}
}

// TestProgressCallback: hooks run without the engine lock, so using
// the engine from inside one must not deadlock.
func TestProgressCallback(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(4, echoRunner)
	e.Run(context.Background(), testGrid().Expand(), func(done, total int, r Result) {
		calls.Add(1)
		if total != 12 || done < 1 || done > 12 {
			t.Errorf("bad progress counters done=%d total=%d", done, total)
		}
		_ = e.CacheSize()
	})
	if calls.Load() != 12 {
		t.Errorf("progress fired %d times, want 12", calls.Load())
	}
}

// TestRunScenariosContextProgress: the campaign's hook fires once per
// scenario, serialized, with done rising by one each call.
func TestRunScenariosContextProgress(t *testing.T) {
	scenarios := testGrid().Expand()
	seen := map[string]int{}
	var calls, last int
	c := NewEngine(3, echoRunner).Run(context.Background(), scenarios, func(done, total int, r Result) {
		calls++
		seen[r.ID]++
		if total != len(scenarios) {
			t.Errorf("total = %d, want %d", total, len(scenarios))
		}
		if done != last+1 {
			t.Errorf("done jumped %d -> %d; progress must be serialized", last, done)
		}
		last = done
	})
	if len(c.Results) != len(scenarios) {
		t.Fatalf("%d results", len(c.Results))
	}
	if calls != len(scenarios) {
		t.Errorf("hook fired %d times, want %d", calls, len(scenarios))
	}
	for _, s := range scenarios {
		if seen[s.ID()] == 0 {
			t.Errorf("scenario %s never reached the hook", s.ID())
		}
	}
}

// TestBlockedHookStallsOnlyItsCampaign: a campaign whose hook blocks —
// sweepd writing frames to an NDJSON client that stopped reading —
// must not stall another campaign on the same engine.
func TestBlockedHookStallsOnlyItsCampaign(t *testing.T) {
	e := NewEngine(4, echoRunner)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		e.Run(context.Background(), testGrid().Expand(), func(int, int, Result) {
			once.Do(func() { close(parked) })
			<-release
		})
	}()
	<-parked
	defer func() {
		close(release)
		<-doneA
	}()

	doneB := make(chan Campaign, 1)
	go func() {
		b := Grid{Machines: []string{"x0", "x1", "x2"}, Seed: 7}.Expand()
		doneB <- e.Run(context.Background(), b, func(int, int, Result) {})
	}()
	select {
	case c := <-doneB:
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign B stalled behind campaign A's blocked progress hook")
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 100)
	ctx := context.Background()
	if err := ForEach(ctx, 7, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	// Lowest-index error wins deterministically.
	err := ForEach(ctx, 7, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("err%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "err3" {
		t.Errorf("ForEach error = %v, want err3", err)
	}
	// Panics become errors.
	if err := ForEach(ctx, 2, 2, func(i int) error { panic("eek") }); err == nil {
		t.Error("panic not surfaced")
	}
}
