package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Metric is one named scalar result. Metrics are an ordered slice (not
// a map) so emitter output is byte-stable.
type Metric struct {
	Name  string
	Value float64
}

// Metrics is a scenario's ordered result set.
type Metrics []Metric

// Add appends a metric.
func (m *Metrics) Add(name string, v float64) { *m = append(*m, Metric{name, v}) }

// Get returns a metric by name.
func (m Metrics) Get(name string) (float64, bool) {
	for _, x := range m {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}

// Result is one scenario's outcome. Exactly one of Metrics/Err is
// meaningful; Cached marks results served from the engine cache or
// deduplicated within a campaign.
type Result struct {
	Scenario Scenario
	ID       string
	Metrics  Metrics
	Err      error
	Cached   bool
}

// Runner executes one scenario under the campaign context, so a
// long-running simulation can observe cancellation (returning early
// with ctx.Err() is fine — the scenario is then a failure, not a cached
// result). Runners that ignore the context keep the engine's coarser
// guarantee: running cells complete, unstarted cells never start.
type Runner func(context.Context, Scenario) (Metrics, error)

// ErrUnstarted marks a scenario a cancelled campaign never started:
// its Result carries an error wrapping both ErrUnstarted and the
// context's error (context.Canceled or context.DeadlineExceeded), so
// callers can tell "skipped because the campaign was cancelled" apart
// from genuine simulation failures with errors.Is.
var ErrUnstarted = errors.New("not started: campaign cancelled")

// Campaign is an executed grid: results in deterministic grid order.
type Campaign struct {
	Results []Result
	// CacheErr aggregates persistence failures from the engine's
	// second-tier Cache (store writes). It is separate from scenario
	// errors: the simulations succeeded, but their results were not
	// durably recorded, so a resumed campaign would re-run them.
	CacheErr error
}

// Failed returns the results that carry errors.
func (c Campaign) Failed() []Result {
	var out []Result
	for _, r := range c.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Unstarted returns the results of scenarios a cancelled campaign
// never started (their errors wrap ErrUnstarted).
func (c Campaign) Unstarted() []Result {
	var out []Result
	for _, r := range c.Results {
		if errors.Is(r.Err, ErrUnstarted) {
			out = append(out, r)
		}
	}
	return out
}

// Interrupted reports whether the campaign was cut short by context
// cancellation — i.e. at least one scenario never started. Completed
// results are still valid (and were written through to the Cache).
func (c Campaign) Interrupted() bool { return len(c.Unstarted()) > 0 }

// Err aggregates per-scenario failures (nil when everything succeeded).
// Scenario errors are isolated — a campaign always completes — so this
// is a summary, not an abort signal.
func (c Campaign) Err() error {
	failed := c.Failed()
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("sweep: %d of %d scenarios failed; first: %s (%s): %w",
		len(failed), len(c.Results), failed[0].Scenario.Label(), failed[0].ID, failed[0].Err)
}

// MetricNames returns the union of metric names in first-appearance
// order across results (grid order), which is deterministic.
func (c Campaign) MetricNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range c.Results {
		for _, m := range r.Metrics {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	return names
}

// Cache is the engine's optional second result tier behind the
// in-memory memoizer — typically a persistent, content-addressed store
// (internal/store) that survives the process and makes campaigns
// resumable. Get is consulted once per novel config hash before the
// scenario is scheduled; Put is called once per freshly simulated
// success. Implementations must be safe for concurrent use.
type Cache interface {
	Get(Scenario) (Metrics, bool)
	Put(Scenario, Metrics) error
}

// Engine executes campaigns with per-scenario result caching. The
// host side — deduplication, the in-memory memoizer, the persistent
// second-tier cache, write-through, progress and deterministic result
// ordering — always runs in-process; the execution of cold cells is
// delegated to the Backend. Create with NewEngine.
type Engine struct {
	// Backend executes the campaign's cold cells. NewEngine sets a
	// LocalBackend; a dispatch fleet replaces it to shard the cells
	// across remote sweepd workers. Results flow back through the same
	// memoization, write-through and progress paths either way, so
	// emitter output and store contents are identical.
	Backend Backend
	// Cache, when set, is the persistent second tier behind the
	// in-memory memoizer: hits skip simulation entirely (Result.Cached),
	// fresh successes are written through. Put errors do not fail
	// scenarios; they aggregate into Campaign.CacheErr.
	Cache Cache

	mu    sync.Mutex
	cache map[string]Metrics // scenario ID -> successful metrics
}

// run is one campaign's progress state: its hook and done count, under
// a lock of its own. Two campaigns on one engine (sweepd serving
// concurrent expands) count independently, and a hook that blocks — a
// streaming client that stopped reading — stalls only its own
// campaign.
type run struct {
	mu       sync.Mutex
	done     int
	total    int
	progress func(done, total int, r Result)
}

// finalize counts one finalized scenario and fires the campaign's hook,
// serialized so done rises by one per call, and outside the engine
// lock so hooks may call back into the engine.
func (p *run) finalize(r Result) {
	if p.progress == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.progress(p.done, p.total, r)
}

// NewEngine returns an engine whose cold cells run on a LocalBackend:
// run on at most workers goroutines (<=0 means GOMAXPROCS).
func NewEngine(workers int, run Runner) *Engine {
	return &Engine{Backend: &LocalBackend{Workers: workers, Run: run}}
}

// CacheSize reports how many scenario results the engine holds.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Run executes a campaign. Cold scenarios run concurrently on the
// Backend but the returned results are in input order. A scenario whose
// config hash was already executed — in this campaign, a previous one
// on the same engine, or (when Cache is set) any prior process that
// wrote the persistent store — is served from cache; a scenario that
// fails is reported in its Result without aborting the rest.
//
// progress, when non-nil, is called once per finalized scenario, warm
// hits, in-campaign duplicates and never-started cells included. Calls
// come from worker goroutines in completion order, serialized per
// campaign; only emitter output is ordered.
//
// Cancelling ctx stops the campaign scheduling new work — at the
// dispatch loop, at the worker-slot acquire, and between second-tier
// cache probes — and the call returns promptly with partial results:
// already-running scenarios complete (and write through to Cache as
// usual), already-finalized results stand, and every never-started
// scenario carries an error wrapping ErrUnstarted and ctx.Err(). The
// campaign still contains one finalized Result per input scenario.
func (e *Engine) Run(ctx context.Context, scenarios []Scenario, progress func(done, total int, r Result)) Campaign {
	total := len(scenarios)
	results := make([]Result, total)
	prog := &run{total: total, progress: progress}
	e.mu.Lock()
	if e.cache == nil {
		e.cache = map[string]Metrics{}
	}
	// Partition: cache hits finalize immediately, the first occurrence
	// of each novel ID executes, repeats copy from the first.
	first := map[string]int{}
	var exec, hits []int
	for i, s := range scenarios {
		id := s.ID()
		results[i] = Result{Scenario: s, ID: id}
		if _, dup := first[id]; dup {
			continue // filled after the pool drains
		}
		first[id] = i
		if m, hit := e.cache[id]; hit {
			results[i].Metrics = m
			results[i].Cached = true
			hits = append(hits, i)
			continue
		}
		exec = append(exec, i)
	}
	e.mu.Unlock()

	// Second tier: probe the persistent cache for memoizer misses,
	// outside the engine lock (Cache implementations take their own
	// locks and may be arbitrary user code). Warm hits skip simulation
	// and seed the memoizer for in-campaign duplicates. A cancelled
	// campaign stops probing: the rest go to the dispatch loop, which
	// finalizes them as unstarted.
	if e.Cache != nil {
		cold := make([]int, 0, len(exec))
		for n, i := range exec {
			if ctx.Err() != nil {
				cold = append(cold, exec[n:]...)
				break
			}
			if m, hit := e.Cache.Get(scenarios[i]); hit {
				results[i].Metrics = m
				results[i].Cached = true
				e.mu.Lock()
				e.cache[results[i].ID] = m
				e.mu.Unlock()
				hits = append(hits, i)
				continue
			}
			cold = append(cold, i)
		}
		exec = cold
	}
	for _, i := range hits {
		prog.finalize(results[i])
	}

	var putMu sync.Mutex
	var putErrs []error
	if len(exec) > 0 {
		// Execution: the cold cells go to the backend as one batch,
		// indexed 0..len(exec)-1. The report callback is the single
		// funnel back into the engine — memoization, write-through and
		// progress — and it is idempotent (first report per cell wins),
		// so backends that re-dispatch work cannot double-finalize.
		cold := make([]Scenario, len(exec))
		for k, i := range exec {
			cold[k] = scenarios[i]
		}
		reported := make([]bool, len(exec))
		report := func(k int, m Metrics, err error) {
			if k < 0 || k >= len(exec) {
				return // defensive: a buggy backend must not panic the campaign
			}
			i := exec[k]
			e.mu.Lock()
			if reported[k] {
				e.mu.Unlock()
				return
			}
			reported[k] = true
			results[i].Metrics, results[i].Err = m, err
			if err == nil {
				// Errors are not cached: a retried campaign re-runs them.
				e.cache[results[i].ID] = m
			}
			r := results[i]
			e.mu.Unlock()
			if err == nil && e.Cache != nil {
				// Write-through to the persistent tier, outside the
				// engine lock — unconditionally, even after cancellation:
				// a completed simulation is durable work a resumed
				// campaign must not repeat. This holds for remote
				// backends too: metrics computed on a worker land in the
				// local store, so a distributed campaign is resumable
				// exactly like a local one. A failed Put degrades
				// resumability, not the scenario: the result stands, the
				// error aggregates.
				if perr := e.Cache.Put(scenarios[i], m); perr != nil {
					putMu.Lock()
					putErrs = append(putErrs, fmt.Errorf("sweep: store %s (%s): %w",
						r.ID, scenarios[i].Label(), perr))
					putMu.Unlock()
				}
			}
			prog.finalize(r)
		}
		panicErr := executeSafe(ctx, e.Backend, cold, report)
		// Finalize anything the backend failed to report: under a
		// cancelled context that is normal (unstarted cells), otherwise
		// it is a backend bug (or panic) that must surface as a
		// per-scenario failure, never as a silently absent result.
		for k, i := range exec {
			e.mu.Lock()
			done := reported[k]
			e.mu.Unlock()
			if done {
				continue
			}
			var err error
			switch {
			case panicErr != nil:
				err = fmt.Errorf("sweep: backend panicked executing %s (%s): %w",
					results[i].ID, scenarios[i].Label(), panicErr)
			case ctx.Err() != nil:
				err = unstartedErr(ctx, scenarios[i], results[i].ID)
			default:
				err = fmt.Errorf("sweep: backend never reported scenario %s (%s)",
					results[i].ID, scenarios[i].Label())
			}
			report(k, nil, err)
		}
	}

	for i := range scenarios {
		j := first[results[i].ID]
		if j == i {
			continue
		}
		results[i].Metrics = results[j].Metrics
		results[i].Err = results[j].Err
		results[i].Cached = true
		prog.finalize(results[i])
	}
	return Campaign{Results: results, CacheErr: errors.Join(putErrs...)}
}

// unstartedErr builds the distinguished error a cancelled campaign
// attaches to every scenario it never started: errors.Is sees both
// ErrUnstarted and the context error (context.Canceled or
// context.DeadlineExceeded).
func unstartedErr(ctx context.Context, s Scenario, id string) error {
	return fmt.Errorf("sweep: scenario %s (%s) %w: %w", id, s.Label(), ErrUnstarted, ctx.Err())
}

// executeSafe runs one backend batch, isolating a backend panic into
// an error instead of killing the campaign: the engine finalizes the
// unreported cells with it.
func executeSafe(ctx context.Context, b Backend, scenarios []Scenario, report ReportFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	b.Execute(ctx, scenarios, report)
	return nil
}

// runSafe isolates runner panics into per-scenario errors so one bad
// scenario cannot kill the campaign.
func runSafe(ctx context.Context, run Runner, s Scenario) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("sweep: scenario %s (%s) panicked: %v", s.ID(), s.Label(), r)
		}
	}()
	return run(ctx, s)
}

// ForEach runs fn(0..n-1) on a bounded worker pool and returns the
// lowest-index error (deterministic regardless of completion order).
// Cancellation stops
// scheduling new tasks — running ones complete — and every task that
// never started reports ctx's error, so the lowest-index-error
// contract stays deterministic.
func ForEach(ctx context.Context, workers, n int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("sweep: task %d: %w", i, err)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = fmt.Errorf("sweep: task %d: %w", i, ctx.Err())
				return
			}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("sweep: task %d panicked: %v", i, r)
				}
			}()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
