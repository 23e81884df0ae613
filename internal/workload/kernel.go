package workload

import (
	"cloversim/internal/trace"
)

// newKernelExecutor builds the simulated core the kernel workloads
// (stream, jacobi, riemann) run on: one representative core of the
// scenario's most-pressured ccNUMA domain under compact pinning, with
// the evasion-mode knobs applied. Kernel workloads model per-core
// traffic ratios, which are pressure- but not count-weighted, so a
// single representative core suffices (the bench package carries the
// count-weighted microbenchmarks).
func newKernelExecutor(c Config) *trace.Executor {
	spec := c.EffectiveSpec()
	x := trace.NewExecutor(spec, c.Memo)
	x.NTStores = c.Mode.NTStores
	x.Env = trace.Env{
		Pressure:      spec.PressureAt(0, c.Threads),
		NodeFraction:  float64(c.Threads) / float64(spec.Cores()),
		ActiveSockets: spec.ActiveSockets(c.Threads),
		PFOn:          !c.Mode.PFOff,
	}
	x.Seed(c.Seed ^ 0x9e3779b97f4a7c15)
	return x
}
