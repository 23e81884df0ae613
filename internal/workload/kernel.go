package workload

import (
	"cloversim/internal/trace"
)

// newKernelExecutor builds the simulated core the kernel workloads
// (stream, jacobi, riemann) run on: core 0 of a node whose first
// Threads cores are active, in the scenario's most-pressured ccNUMA
// domain under compact pinning, with the evasion-mode knobs applied.
// Kernel workloads model per-core traffic ratios, which are pressure-
// but not count-weighted, so a single representative core suffices
// (the bench package carries the count-weighted microbenchmarks).
func newKernelExecutor(c Config) *trace.Executor {
	return trace.Node{
		Spec:     c.EffectiveSpec(),
		Active:   c.Threads,
		PFOn:     !c.Mode.PFOff,
		NTStores: c.Mode.NTStores,
		Seed:     c.Seed,
		Memo:     c.Memo,
	}.Core(0)
}
