package sweep

import "context"

// ReportFunc receives one finalized cold-cell outcome from a Backend:
// i indexes the scenario slice passed to Execute, and exactly one of
// m/err is meaningful. Implementations provided by the engine are safe
// for concurrent use and idempotent — the first report for an index
// wins, repeats are dropped — so a backend that re-dispatches work
// (straggler recovery, retry after a worker failure) may report an
// index twice without corrupting the campaign.
type ReportFunc func(i int, m Metrics, err error)

// Backend executes the cold cells of a campaign: the first occurrence
// of each scenario ID that the engine's Cache did not hold. The engine
// owns everything around execution — deduplication, cache probes,
// write-through, progress, deterministic grid ordering — so a backend
// only has to turn scenarios into metrics.
//
// Contract: Execute reports every cell it starts before returning
// (duplicates are tolerated). A cell it never starts because ctx was
// cancelled stays unreported: the engine finalizes it with an error
// wrapping ErrUnstarted and ctx.Err(), so cancellation stays
// distinguishable from genuine failures. Already-running cells may
// complete and report normally. A cell left unreported under a live
// ctx is a backend bug, which the engine finalizes as a failure.
// Report callbacks may be invoked concurrently.
//
// The default backend is LocalBackend (the in-process bounded worker
// pool); internal/dispatch provides a fleet backend that shards the
// batch across remote sweepd workers.
type Backend interface {
	Execute(ctx context.Context, scenarios []Scenario, report ReportFunc)
}

// LocalBackend executes scenarios on an in-process bounded worker
// pool, one ForEach over the batch; NewEngine installs it. Runner
// panics are isolated into per-scenario errors. A cancelled batch
// starts no new scenario while running ones complete, and the cells it
// never started stay unreported.
type LocalBackend struct {
	// Workers bounds concurrent scenario executions (<= 0 means
	// GOMAXPROCS).
	Workers int
	// Run executes one scenario. It must be set.
	Run Runner
}

// Execute implements Backend. Each task reports its own cell, so
// ForEach's error, a never-started task's, needs no handling: the
// engine finalizes that cell.
func (b *LocalBackend) Execute(ctx context.Context, scenarios []Scenario, report ReportFunc) {
	ForEach(ctx, b.Workers, len(scenarios), func(i int) error {
		m, err := runSafe(ctx, b.Run, scenarios[i])
		report(i, m, err)
		return nil
	})
}

// Interface conformance.
var _ Backend = (*LocalBackend)(nil)
