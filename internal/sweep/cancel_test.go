package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingCache is a Cache that counts probes and write-throughs.
type countingCache struct {
	mu   sync.Mutex
	gets int
	puts int
	data map[string]Metrics
}

func (c *countingCache) Get(s Scenario) (Metrics, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	m, ok := c.data[s.ID()]
	return m, ok
}

func (c *countingCache) Put(s Scenario, m Metrics) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.data == nil {
		c.data = map[string]Metrics{}
	}
	c.data[s.ID()] = m
	return nil
}

func (c *countingCache) counts() (gets, puts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets, c.puts
}

// TestRunContextCancellationStopsScheduling is the tentpole lockdown:
// cancelling a campaign mid-flight stops cold cells being scheduled,
// lets already-running scenarios complete AND write through to the
// persistent tier, and finalizes every unstarted cell with the
// distinguished ErrUnstarted/context.Canceled error — while the
// progress callback still fires exactly once per scenario.
func TestRunContextCancellationStopsScheduling(t *testing.T) {
	g := testGrid() // 12 unique scenarios
	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var invocations atomic.Int64
	started := make(chan struct{}, 16)
	runner := func(rctx context.Context, s Scenario) (Metrics, error) {
		invocations.Add(1)
		started <- struct{}{}
		// A long-running cell: completes only after the cancellation,
		// proving running work is never abandoned.
		select {
		case <-rctx.Done():
		case <-time.After(10 * time.Second):
			return nil, errors.New("cancellation never arrived")
		}
		var m Metrics
		m.Add("v", 1)
		return m, nil
	}

	cache := &countingCache{}
	e := NewEngine(workers, runner)
	e.Cache = cache
	var progress atomic.Int64
	doneSeen := make(map[int]bool)
	var doneMu sync.Mutex
	hook := func(done, total int, r Result) {
		progress.Add(1)
		if total != 12 || done < 1 || done > 12 {
			t.Errorf("bad progress counters done=%d total=%d", done, total)
		}
		doneMu.Lock()
		if doneSeen[done] {
			t.Errorf("done count %d reported twice", done)
		}
		doneSeen[done] = true
		doneMu.Unlock()
	}

	campaign := make(chan Campaign, 1)
	go func() { campaign <- e.Run(ctx, g.Expand(), hook) }()
	<-started
	<-started // both workers hold a scenario
	cancel()
	c := <-campaign

	if got := invocations.Load(); got != workers {
		t.Errorf("runner invoked %d times after cancellation, want exactly %d (the in-flight cells)", got, workers)
	}
	if !c.Interrupted() {
		t.Error("campaign does not report itself interrupted")
	}
	unstarted := c.Unstarted()
	if len(unstarted) != 12-workers {
		t.Fatalf("%d unstarted cells, want %d", len(unstarted), 12-workers)
	}
	for _, r := range unstarted {
		if !errors.Is(r.Err, ErrUnstarted) {
			t.Errorf("unstarted cell %s error %v does not wrap ErrUnstarted", r.ID, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("unstarted cell %s error %v does not wrap context.Canceled", r.ID, r.Err)
		}
	}
	completed := 0
	for _, r := range c.Results {
		if r.Err == nil {
			if v, ok := r.Metrics.Get("v"); !ok || v != 1 {
				t.Errorf("completed cell %s missing metrics", r.ID)
			}
			completed++
		}
	}
	if completed != workers {
		t.Errorf("%d completed cells, want %d", completed, workers)
	}
	if _, puts := cache.counts(); puts != workers {
		t.Errorf("write-through ran %d times, want %d: completed results must persist even after cancellation", puts, workers)
	}
	if got := progress.Load(); got != 12 {
		t.Errorf("progress fired %d times, want 12 (every scenario finalizes, even unstarted ones)", got)
	}
	if err := c.Err(); err == nil {
		t.Error("interrupted campaign should report an aggregate error")
	}
}

// TestRunContextPreCancelled: an already-dead context performs no work
// at all — no cache probes, no simulations — yet still returns one
// finalized Result per scenario.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var invocations atomic.Int64
	cache := &countingCache{}
	e := NewEngine(4, func(context.Context, Scenario) (Metrics, error) {
		invocations.Add(1)
		return nil, nil
	})
	e.Cache = cache
	c := e.Run(ctx, testGrid().Expand(), nil)
	if invocations.Load() != 0 {
		t.Errorf("pre-cancelled campaign ran %d simulations, want 0", invocations.Load())
	}
	if gets, puts := cache.counts(); gets != 0 || puts != 0 {
		t.Errorf("pre-cancelled campaign touched the cache (%d gets, %d puts), want none", gets, puts)
	}
	if len(c.Results) != 12 || len(c.Unstarted()) != 12 {
		t.Errorf("%d results, %d unstarted; want 12/12", len(c.Results), len(c.Unstarted()))
	}
}

// TestRunContextDeadline: a deadline-cancelled campaign wraps
// context.DeadlineExceeded, so callers can distinguish timeouts from
// interrupts.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := NewEngine(2, echoRunner).Run(ctx, testGrid().Expand(), nil)
	if len(c.Unstarted()) != 12 {
		t.Fatalf("%d unstarted, want 12", len(c.Unstarted()))
	}
	if err := c.Results[0].Err; !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrUnstarted) {
		t.Errorf("deadline error %v should wrap both context.DeadlineExceeded and ErrUnstarted", err)
	}
}

// TestRunContextCancelDuringCacheProbe: cancellation between
// Cache probes stops the probing loop — exactly one Get happens
// when the first probe triggers the cancel.
func TestRunContextCancelDuringCacheProbe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := &cancellingCache{cancel: cancel}
	var invocations atomic.Int64
	e := NewEngine(2, func(context.Context, Scenario) (Metrics, error) {
		invocations.Add(1)
		return nil, nil
	})
	e.Cache = cache
	c := e.Run(ctx, testGrid().Expand(), nil)
	if got := cache.gets.Load(); got != 1 {
		t.Errorf("cache probed %d times after cancellation, want 1", got)
	}
	if invocations.Load() != 0 {
		t.Errorf("cancelled campaign still simulated %d cells", invocations.Load())
	}
	if len(c.Unstarted()) != 12 {
		t.Errorf("%d unstarted, want 12", len(c.Unstarted()))
	}
}

// cancellingCache cancels the campaign from inside its first Get.
type cancellingCache struct {
	gets   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingCache) Get(Scenario) (Metrics, bool) {
	if c.gets.Add(1) == 1 {
		c.cancel()
	}
	return nil, false
}

func (c *cancellingCache) Put(Scenario, Metrics) error { return nil }

// TestConcurrentCampaignsIndependentProgress is the regression lock
// for the shared-progress race: two campaigns running concurrently on
// ONE engine (exactly what sweepd does across expand requests) must
// each see their own monotonically complete done counts. Before the
// per-run counter, a campaign reset the shared engine count on entry,
// so a second campaign clobbered the first one's counts mid-flight.
func TestConcurrentCampaignsIndependentProgress(t *testing.T) {
	gridA := testGrid() // 12 scenarios, total identifies the campaign
	gridB := Grid{      // 6 scenarios, disjoint IDs from gridA
		Machines: []string{"x0", "x1", "x2"},
		Modes:    []Mode{{Name: "a"}},
		Ranks:    []int{1, 2},
		Seed:     7,
	}
	e := NewEngine(4, func(ctx context.Context, s Scenario) (Metrics, error) {
		time.Sleep(time.Millisecond) // force the campaigns to interleave
		return echoRunner(ctx, s)
	})
	var mu sync.Mutex
	seen := map[int][]int{} // total -> done values, in callback order
	hook := func(done, total int, r Result) {
		mu.Lock()
		seen[total] = append(seen[total], done)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, g := range []Grid{gridA, gridB} {
		wg.Add(1)
		go func(g Grid) {
			defer wg.Done()
			if c := e.Run(context.Background(), g.Expand(), hook); len(c.Failed()) != 0 {
				t.Errorf("campaign failed: %v", c.Err())
			}
		}(g)
	}
	wg.Wait()

	for total, want := range map[int]int{12: 12, 6: 6} {
		done := seen[total]
		if len(done) != want {
			t.Fatalf("campaign of %d scenarios fired %d progress callbacks, want %d (counts corrupted by the concurrent campaign?)", total, len(done), want)
		}
		hit := make([]bool, want+1)
		for _, d := range done {
			if d < 1 || d > want || hit[d] {
				t.Fatalf("campaign of %d scenarios saw done counts %v, want a permutation of 1..%d", total, done, want)
			}
			hit[d] = true
		}
	}
}
