// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design
// choices called out in DESIGN.md and throughput benches for the
// substrates. Domain metrics are attached via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the headline number of every artifact next to its cost.
package cloversim

import (
	"math"
	"testing"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/model"
	"cloversim/internal/mpi"
	"cloversim/internal/trace"
)

// quickOpts keeps benchmark configs tractable.
func quickOpts() Options { return Options{MaxRows: 24} }

// --- E1: Listing 2 -----------------------------------------------------

func BenchmarkListing2Profile(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		p, _, err := Listing2Profile(b.Context(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		share = p.Share("advec_mom_kernel", "advec_cell_kernel", "pdv_kernel")
	}
	b.ReportMetric(share, "hotspot_%") // paper: ~69
}

// --- E2: Table I -------------------------------------------------------

func BenchmarkTableISingleCore(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, _, err := TableI(b.Context(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			e := math.Abs(r.Simulated-r.MeasuredSingleCore) / r.MeasuredSingleCore
			worst = math.Max(worst, e)
		}
	}
	b.ReportMetric(worst*100, "worst_err_%") // paper column reproduced within a few %
}

// --- E3: Figure 2 ------------------------------------------------------

func BenchmarkFigure2Scaling(b *testing.B) {
	o := quickOpts()
	o.Ranks = []int{1, 9, 18, 19, 36, 37, 64, 71, 72}
	var drop float64
	for i := 0; i < b.N; i++ {
		pts, _, err := Figure2Scaling(b.Context(), o)
		if err != nil {
			b.Fatal(err)
		}
		var s71, s72 float64
		for _, p := range pts {
			if p.Ranks == 71 {
				s71 = p.Speedup
			}
			if p.Ranks == 72 {
				s72 = p.Speedup
			}
		}
		drop = 100 * (1 - s71/s72)
	}
	b.ReportMetric(drop, "prime_drop_%")
}

// --- E4: Figure 3 ------------------------------------------------------

func BenchmarkFigure3CodeBalance(b *testing.B) {
	o := quickOpts()
	o.Ranks = []int{1, 36, 71, 72}
	var spike float64
	for i := 0; i < b.N; i++ {
		pts, _, err := Figure3CodeBalance(b.Context(), o)
		if err != nil {
			b.Fatal(err)
		}
		var b71, b72 float64
		for _, p := range pts {
			if p.Ranks == 71 {
				b71 = p.Balance["am04"]
			}
			if p.Ranks == 72 {
				b72 = p.Balance["am04"]
			}
		}
		spike = 100 * (b71/b72 - 1)
	}
	b.ReportMetric(spike, "am04_prime_spike_%")
}

// --- E5: Figure 4 ------------------------------------------------------

func BenchmarkFigure4MPIShare(b *testing.B) {
	var serial71 float64
	for i := 0; i < b.N; i++ {
		shares, _, err := Figure4MPIShare(b.Context(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range shares {
			if s.Ranks == 71 {
				serial71 = s.Serial
			}
		}
	}
	b.ReportMetric(serial71, "serial71_%") // paper band: 94-99
}

// --- E6/E10/E11: Figures 5, 9, 10 --------------------------------------

func benchStoreRatio(b *testing.B, machineName string, socket, node int) {
	o := quickOpts()
	o.MachineName = machineName
	o.Ranks = []int{1, socket, node}
	var nodeRatio float64
	for i := 0; i < b.N; i++ {
		pts, _, err := FigureStoreRatio(b.Context(), o)
		if err != nil {
			b.Fatal(err)
		}
		nodeRatio = pts[len(pts)-1].Normal[0]
	}
	b.ReportMetric(nodeRatio, "node_st1_ratio")
}

func BenchmarkFigure5StoreRatioICX(b *testing.B)      { benchStoreRatio(b, "icx", 36, 72) }
func BenchmarkFigure9StoreRatioSPR8470(b *testing.B)  { benchStoreRatio(b, "spr8470+s", 52, 104) }
func BenchmarkFigure10StoreRatioSPR8480(b *testing.B) { benchStoreRatio(b, "spr8480", 56, 112) }

// --- E7: Figure 6 ------------------------------------------------------

func BenchmarkFigure6CopyVolumes(b *testing.B) {
	o := quickOpts()
	o.Ranks = []int{1, 9, 17}
	var read17 float64
	for i := 0; i < b.N; i++ {
		pts, _, err := Figure6CopyVolumes(b.Context(), o)
		if err != nil {
			b.Fatal(err)
		}
		read17 = pts[len(pts)-1].ReadPerIt
	}
	b.ReportMetric(read17, "read_bpi_17thr") // paper: ~8 (WAs evaded)
}

// --- E8: Figure 7 ------------------------------------------------------

func BenchmarkFigure7RefinedModel(b *testing.B) {
	var avgErr float64
	for i := 0; i < b.N; i++ {
		rows, _, err := Figure7RefinedModel(b.Context(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var s float64
		for _, r := range rows {
			s += math.Abs(r.Original-r.Prediction) / r.Prediction
		}
		avgErr = 100 * s / float64(len(rows))
	}
	b.ReportMetric(avgErr, "model_err_%") // paper: ~7
}

// --- E9/E12: Figures 8, 11 ---------------------------------------------

func benchHalo(b *testing.B, machineName string) {
	o := quickOpts()
	o.MachineName = machineName
	var a216 float64
	for i := 0; i < b.N; i++ {
		pts, _, err := FigureHaloCopy(b.Context(), o, false)
		if err != nil {
			b.Fatal(err)
		}
		a216 = AverageRatio(pts, 216, false)
	}
	b.ReportMetric(a216, "avg216_ratio")
}

func BenchmarkFigure8HaloICX(b *testing.B)  { benchHalo(b, "icx") }
func BenchmarkFigure11HaloSPR(b *testing.B) { benchHalo(b, "spr8480") }

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
	x := trace.NewExecutor(machine.ICX8360Y(), nil)
	x.Env = trace.Env{Pressure: 1, NodeFraction: 1, ActiveSockets: 2, PFOn: true}
	b.ResetTimer()
	var c memsim.Counts
	for i := 0; i < b.N; i++ {
		c = x.Run(am04.Loop, am04.Bounds)
	}
	b.ReportMetric(float64(c.TotalBytes())/float64(am04.Bounds.Iterations()), "byte/it")
}

// BenchmarkPhysicsStep times hydro steps of the serial run, the rank of
// a one-rank world (its reductions complete locally, so it steps outside
// World.Run).
func BenchmarkPhysicsStep(b *testing.B) {
	var r *cloverleaf.Rank
	mpi.NewWorld(1).Run(func(c *mpi.Comm) { r = cloverleaf.NewRank(cloverleaf.Small(256, 1000000), c) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(i + 1); err != nil {
			b.Fatal(err)
		}
	}
	cells := float64(256 * 256)
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
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

func BenchmarkMPIAllreduce(b *testing.B) {
	w := mpi.NewWorld(8)
	b.ResetTimer()
	w.Run(func(c *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			c.AllreduceScalar(float64(i), mpi.OpMin)
		}
	})
}

func BenchmarkHaloExchange4Ranks(b *testing.B) {
	cfg := cloverleaf.Small(128, 1)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		r := cloverleaf.NewRank(cfg, c)
		fields := []cloverleaf.HaloField{
			{F: r.Chunk.Density0, Kind: cloverleaf.KindCell},
			{F: r.Chunk.XVel0, Kind: cloverleaf.KindNodeX},
		}
		for i := 0; i < b.N; i++ {
			if err := r.Chunk.UpdateHalo(c, r.Nbr, fields, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
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
