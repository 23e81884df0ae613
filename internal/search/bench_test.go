package search

import (
	"context"
	"sync/atomic"
	"testing"

	"cloversim/internal/sweep"
)

// BenchmarkAdaptiveVsExhaustive quantifies the tentpole win: locating a
// frontier on a 2-track x 1024-value grid adaptively versus running the
// full cross product. The cells/op metric is the load the backends
// (memsim locally, the fleet remotely) would actually carry; the
// per-cell runner is synthetic so the benchmark isolates driver
// overhead plus cell count rather than memsim throughput.
func BenchmarkAdaptiveVsExhaustive(b *testing.B) {
	const lo, hi = 1, 1024
	thresholds := map[string]float64{"icx": 137.5, "spr8480": 900.5}
	target, err := ParseTarget("gt:m:0")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("adaptive", func(b *testing.B) {
		var cells atomic.Int64
		for i := 0; i < b.N; i++ {
			plan := &Plan{
				Grid:   sweep.Grid{Machines: []string{"icx", "spr8480"}, Ranks: []int{lo, hi}},
				Axis:   AxisRanks,
				Target: target,
			}
			out, err := plan.Run(context.Background(), sweep.NewEngine(4, syntheticRunner(AxisRanks, thresholds, &cells)), nil)
			if err != nil {
				b.Fatal(err)
			}
			if out.FrontierCount() != 2 {
				b.Fatalf("frontier count %d, want 2", out.FrontierCount())
			}
		}
		b.ReportMetric(float64(cells.Load())/float64(b.N), "cells/op")
	})

	b.Run("exhaustive", func(b *testing.B) {
		var cells atomic.Int64
		var scenarios []sweep.Scenario
		for _, mach := range []string{"icx", "spr8480"} {
			for v := lo; v <= hi; v++ {
				scenarios = append(scenarios, apply(AxisRanks, sweep.Scenario{Machine: mach}, Value{X: v}))
			}
		}
		for i := 0; i < b.N; i++ {
			eng := sweep.NewEngine(4, syntheticRunner(AxisRanks, thresholds, &cells))
			c := eng.Run(context.Background(), scenarios, nil)
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cells.Load())/float64(b.N), "cells/op")
	})
}
