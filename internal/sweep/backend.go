package sweep

import (
	"context"
	"runtime"
	"sync"
)

// ReportFunc receives one finalized cold-cell outcome from a Backend:
// i indexes the scenario slice passed to Execute, and exactly one of
// m/err is meaningful. Implementations provided by the engine are safe
// for concurrent use and idempotent — the first report for an index
// wins, repeats are dropped — so a backend that re-dispatches work
// (straggler recovery, retry after a worker failure) may report an
// index twice without corrupting the campaign.
type ReportFunc func(i int, m Metrics, err error)

// Backend executes the cold cells of a campaign: the scenarios that
// survived the engine's memoizer and persistent-cache tiers and
// actually need simulation. The engine owns everything around
// execution — deduplication, cache probes, write-through, progress,
// deterministic grid ordering — so a backend only has to turn
// scenarios into metrics.
//
// Contract: Execute must call report exactly once per index before
// returning (duplicates are tolerated, gaps are not — though the
// engine defensively finalizes unreported cells as failures). Under a
// cancelled ctx, cells that never started must be reported with an
// error wrapping ErrUnstarted and ctx.Err() so cancellation stays
// distinguishable from genuine failures; already-running cells may
// complete and report normally. Report callbacks may be invoked
// concurrently.
//
// The default backend is LocalBackend (the in-process bounded worker
// pool); internal/dispatch provides a fleet backend that shards the
// batch across remote sweepd workers.
type Backend interface {
	Execute(ctx context.Context, scenarios []Scenario, report ReportFunc)
}

// LocalBackend executes scenarios on an in-process bounded worker
// pool; NewEngine installs it. Runner panics are isolated
// into per-scenario errors; cancellation is observed at dispatch and
// at the worker-slot acquire, so a cancelled batch stops starting new
// scenarios while running ones complete.
type LocalBackend struct {
	// Workers bounds concurrent scenario executions (<= 0 means
	// GOMAXPROCS).
	Workers int
	// Run executes one scenario. It must be set.
	Run Runner
}

// Execute implements Backend.
func (b *LocalBackend) Execute(ctx context.Context, scenarios []Scenario, report ReportFunc) {
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range scenarios {
		if ctx.Err() != nil {
			// Dispatch-time cancellation: finalize without scheduling.
			report(i, nil, unstartedErr(ctx, scenarios[i], scenarios[i].ID()))
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// The batch was cancelled while this scenario queued for
				// a worker slot: finalize it unstarted so the pool drains
				// without doing new work.
				report(i, nil, unstartedErr(ctx, scenarios[i], scenarios[i].ID()))
				return
			}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				// Slot acquired in a race with cancellation: still no new
				// work.
				report(i, nil, unstartedErr(ctx, scenarios[i], scenarios[i].ID()))
				return
			}
			m, err := runSafe(ctx, b.Run, scenarios[i])
			report(i, m, err)
		}(i)
	}
	wg.Wait()
}

// Interface conformance.
var _ Backend = (*LocalBackend)(nil)
