// Ablation benchmarks for the model's design choices (the run-detector
// warm-up, SpecI2M, loop eligibility, SNC, the CLX baseline) and
// throughput benchmarks for the substrates. Domain metrics are attached
// via b.ReportMetric:
//
//	go test -run - -bench . -benchmem
//
// The paper's figures themselves are cmd/experiments' CSVs, committed
// under testdata/figures and checked by experiments_test.go.
package cloversim

import (
	"testing"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/model"
	"cloversim/internal/trace"
)

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationRunDetectorK varies the run-detector warm-up length:
// longer warm-ups hurt short inner dimensions (the prime effect knob).
func BenchmarkAblationRunDetectorK(b *testing.B) {
	// A misaligned halo resets the detector every row, so the warm-up
	// length K directly scales the unclaimed fraction of each 27-line row.
	for _, k := range []int{1, 5, 12} {
		b.Run(map[int]string{1: "K1", 5: "K5", 12: "K12"}[k], func(b *testing.B) {
			spec := *machine.ICX8360Y()
			spec.I2M.MinRunLines = k
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunCopy(bench.CopyOptions{
					Machine: &spec, Cores: 72, Elems: 1 << 17, Inner: 216, Halo: 3})
				if err != nil {
					b.Fatal(err)
				}
				ratio = r.RWRatio()
			}
			b.ReportMetric(ratio, "rw216_ratio")
		})
	}
}

// BenchmarkAblationEvasionCurve compares CloverLeaf full-node traffic
// with SpecI2M on vs off (the paper's MSR experiment).
func BenchmarkAblationEvasionCurve(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "SpecI2M_on"
		if off {
			name = "SpecI2M_off"
		}
		b.Run(name, func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				res, err := cloverleaf.RunTraffic(cloverleaf.TrafficOptions{
					Machine: machine.ICX8360Y(), Ranks: 72, MaxRows: 24,
					AlignArrays: true, HotspotOnly: true, SpecI2MOff: off,
				})
				if err != nil {
					b.Fatal(err)
				}
				vol = res.BytesPerStep() / 1e9
			}
			b.ReportMetric(vol, "GB/step")
		})
	}
}

// BenchmarkAblationEligibility quantifies the ac01/ac05 restructuring.
func BenchmarkAblationEligibility(b *testing.B) {
	for _, opt := range []bool{false, true} {
		name := "original"
		if opt {
			name = "restructured"
		}
		b.Run(name, func(b *testing.B) {
			var bpi float64
			for i := 0; i < b.N; i++ {
				res, err := cloverleaf.RunTraffic(cloverleaf.TrafficOptions{
					Machine: machine.ICX8360Y(), Ranks: 36, MaxRows: 24,
					AlignArrays: true, HotspotOnly: true, OptimizeLoops: opt,
				})
				if err != nil {
					b.Fatal(err)
				}
				bpi = res.Loop("ac01").BytesPerIt(res.InnerCells)
			}
			b.ReportMetric(bpi, "ac01_bpi")
		})
	}
}

// BenchmarkAblationSNC compares ICX with SNC on vs off.
func BenchmarkAblationSNC(b *testing.B) {
	for _, name := range []string{"icx", "icx-snc0"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := machine.ByName(name)
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunStore(bench.StoreOptions{
					Machine: spec, Streams: 1, Cores: 18, BytesPerStream: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				ratio = r.Ratio()
			}
			b.ReportMetric(ratio, "st1_ratio_18c")
		})
	}
}

// --- Substrate throughput ------------------------------------------------

func BenchmarkHierarchyStreamingLoad(b *testing.B) {
	h := memsim.New(machine.ICX8360Y())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessRange(int64(i), 1, memsim.AccessLoad)
	}
	b.ReportMetric(float64(h.Counts().MemReadLines)/float64(b.N), "missrate")
}

func BenchmarkStoreEngineFullLines(b *testing.B) {
	h := memsim.New(machine.ICX8360Y())
	e := core.NewStoreEngine(h, machine.ICX8360Y())
	e.ConfigureStreams(1, nil)
	e.SetContext(core.Context{Pressure: 1, ActiveSockets: 1,
		Class: machine.ClassCopy, StoreStreams: 1, Eligible: true, PFOn: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.StoreRange(0, int64(i)*64, 64)
	}
}

func BenchmarkTraceReplayAm04(b *testing.B) {
	tc := cloverleaf.NewTrafficChunk(1, 1920, 1, 64, 0, true)
	loops := tc.HotspotLoops(false)
	var am04 cloverleaf.LoopInstance
	for _, l := range loops {
		if l.Loop.Name == "am04" {
			am04 = l
		}
	}
	icx := machine.ICX8360Y()
	x := trace.Node{Spec: icx, Active: icx.Cores(), PFOn: true}.Core(0)
	b.ResetTimer()
	var c memsim.Counts
	for i := 0; i < b.N; i++ {
		c = x.Run(am04.Loop, am04.Bounds)
	}
	b.ReportMetric(float64(c.TotalBytes())/float64(am04.Bounds.Iterations()), "byte/it")
}

// BenchmarkAblationBaselineCLX contrasts the pre-SpecI2M Cascade Lake
// baseline with ICX at matching occupancy.
func BenchmarkAblationBaselineCLX(b *testing.B) {
	for _, name := range []string{"clx", "icx"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := machine.ByName(name)
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunStore(bench.StoreOptions{
					Machine: spec, Streams: 1, Cores: spec.CoresPerSocket, BytesPerStream: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				ratio = r.Ratio()
			}
			b.ReportMetric(ratio, "socket_st1_ratio")
		})
	}
}

// BenchmarkModelAnalytic measures the pure analytic model (no sim).
func BenchmarkModelAnalytic(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		for _, r := range model.Table1 {
			s += r.RefinedPrediction(1.2, true)
		}
	}
	b.ReportMetric(s/float64(b.N)/22, "avg_pred_bpi")
}
