package sweep

import (
	"context"
	"strconv"
	"testing"
)

// benchRunner does a small deterministic amount of arithmetic per
// scenario so engine throughput measures dispatch overhead against
// non-trivial (but cheap) work.
func benchRunner(_ context.Context, s Scenario) (Metrics, error) {
	acc := float64(s.Ranks)
	for i := 0; i < 2048; i++ {
		acc += 1.0 / float64(i+s.Threads+1)
	}
	var m Metrics
	m.Add("acc", acc)
	return m, nil
}

// BenchmarkEngineThroughput is the dispatch-layer baseline for
// BENCH_sweep.json: scenarios executed per op through the full engine
// path (memoizer partition, local backend pool, result ordering), on a
// fresh engine each iteration so nothing is served from cache.
func BenchmarkEngineThroughput(b *testing.B) {
	const cells = 256
	scenarios := make([]Scenario, cells)
	for i := range scenarios {
		scenarios[i] = Scenario{Machine: "m" + strconv.Itoa(i%4), Ranks: i + 1, Threads: i % 7}
	}
	for _, workers := range []int{1, 8} {
		b.Run("workers"+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := NewEngine(workers, benchRunner).Run(context.Background(), scenarios, nil)
				if err := c.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cells), "scenarios/op")
		})
	}
}

// BenchmarkEngineWarmCampaign measures the all-warm path: every cell
// served from the memoizer. This is the steady state of a resumed
// campaign and should stay allocation-light.
func BenchmarkEngineWarmCampaign(b *testing.B) {
	const cells = 256
	scenarios := make([]Scenario, cells)
	for i := range scenarios {
		scenarios[i] = Scenario{Machine: "m", Ranks: i + 1}
	}
	eng := NewEngine(8, benchRunner)
	if err := eng.Run(context.Background(), scenarios, nil).Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := eng.Run(context.Background(), scenarios, nil)
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
