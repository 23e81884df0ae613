package cloversim

import (
	"context"
	"fmt"
	"sort"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/csvout"
	"cloversim/internal/decomp"
	"cloversim/internal/model"
	"cloversim/internal/profiler"
	"cloversim/internal/sweep"
)

// experimentWorkers bounds the per-experiment scenario parallelism
// (each scenario is itself a multi-goroutine traffic simulation).
const experimentWorkers = 8

// trafficOpts builds the common traffic-study options.
func (o Options) trafficOpts(ranks int) (cloverleaf.TrafficOptions, error) {
	spec, err := o.machine()
	if err != nil {
		return cloverleaf.TrafficOptions{}, err
	}
	return cloverleaf.TrafficOptions{
		Machine:     spec,
		Ranks:       ranks,
		MaxRows:     o.MaxRows,
		AlignArrays: true,
		Seed:        o.Seed,
	}, nil
}

// ---------------------------------------------------------------------
// E1 — Listing 2: gprofng runtime profile of a 72-rank run.
// ---------------------------------------------------------------------

// Listing2Profile models the per-function CPU-time profile.
func Listing2Profile(o Options) (*profiler.Profile, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(0)
	if err != nil {
		return nil, nil, err
	}
	spec := to.Machine
	to.Ranks = spec.Cores()
	m, err := cloverleaf.ModelNode(to)
	if err != nil {
		return nil, nil, err
	}
	// Scale per-step aggregate CPU seconds to the Tiny run (400 steps).
	kernels := map[string]float64{}
	for k, v := range m.KernelSeconds {
		kernels[k] = v * 400
	}
	p := profiler.FromKernelSeconds(kernels)
	t := csvout.New("name", "excl_sec", "cpu_pct")
	t.Add("<Total>", p.Total, 100.0)
	for _, e := range p.Top(10) {
		t.Add(e.Name, e.Seconds, e.Percent)
	}
	return p, t, nil
}

// ---------------------------------------------------------------------
// E2 — Table I: analytic loop models and measured single-core balance.
// ---------------------------------------------------------------------

// TableIRow is one output row of the Table I reproduction.
type TableIRow struct {
	model.Table1Row
	Simulated float64 // simulated single-core byte/it
}

// TableI reproduces Table I: the four analytic byte/it columns plus the
// simulated single-core code balance next to the paper's measurement.
func TableI(o Options) ([]TableIRow, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(1)
	if err != nil {
		return nil, nil, err
	}
	to.HotspotOnly = true
	res, err := cloverleaf.RunTraffic(to)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]TableIRow, 0, len(model.Table1))
	t := csvout.New("loop", "arrays", "rd_lcf", "rd_lcb", "wr", "rd_wr", "flops",
		"bpi_min", "bpi_lcf_wa", "bpi_lcb", "bpi_max", "bpi_paper_meas", "bpi_simulated")
	for _, r := range model.Table1 {
		lt := res.Loop(r.Name)
		if lt == nil {
			return nil, nil, fmt.Errorf("cloversim: loop %s missing from traffic study", r.Name)
		}
		row := TableIRow{Table1Row: r, Simulated: lt.BytesPerIt(res.InnerCells)}
		rows = append(rows, row)
		t.Add(r.Name, r.Arrays, r.RDLCF, r.RDLCB, r.WR, r.RDWR, r.FlopsIt,
			r.BytesMin(), r.BytesLCFWA(), r.BytesLCB(), r.BytesMax(),
			r.MeasuredSingleCore, row.Simulated)
	}
	return rows, t, nil
}

// ---------------------------------------------------------------------
// E3 — Figure 2: speedup and memory bandwidth vs rank count.
// ---------------------------------------------------------------------

// Figure2Scaling models the scaling curve with compact pinning.
func Figure2Scaling(o Options) ([]cloverleaf.ScalingPoint, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(1)
	if err != nil {
		return nil, nil, err
	}
	spec := to.Machine
	ranks := o.rankList(spec.Cores())

	// Compute points in parallel (each is an independent model run).
	pts := make([]cloverleaf.ScalingPoint, len(ranks))
	err = sweep.ForEach(context.Background(), experimentWorkers, len(ranks), func(i int) error {
		n := ranks[i]
		oo := to
		oo.Ranks = n
		m, err := cloverleaf.ModelNode(oo)
		if err != nil {
			return err
		}
		pts[i] = cloverleaf.ScalingPoint{
			Ranks:          n,
			StepSeconds:    m.StepSeconds,
			MPISeconds:     m.MPIPerStep.Total(),
			BandwidthGBs:   m.BandwidthBytes / 1e9,
			Prime:          decomp.IsPrime(n),
			InnerDimension: decomp.InnerDim(n, 15360, 15360),
		}
		pts[i].Speedup = m.TotalStepSeconds // patched below with serial baseline
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Serial baseline: the run with ranks==1 must be part of the list.
	serial := -1.0
	for i := range pts {
		if pts[i].Ranks == 1 {
			serial = pts[i].Speedup
		}
	}
	if serial < 0 {
		oo := to
		oo.Ranks = 1
		m, err := cloverleaf.ModelNode(oo)
		if err != nil {
			return nil, nil, err
		}
		serial = m.TotalStepSeconds
	}
	t := csvout.New("ranks", "speedup", "bandwidth_gbs", "step_sec", "mpi_sec", "prime", "inner_dim")
	for i := range pts {
		pts[i].Speedup = serial / pts[i].Speedup
		p := pts[i]
		t.Add(p.Ranks, p.Speedup, p.BandwidthGBs, p.StepSeconds, p.MPISeconds, p.Prime, p.InnerDimension)
	}
	return pts, t, nil
}

// ---------------------------------------------------------------------
// E4 — Figure 3: per-loop code balance vs rank count.
// ---------------------------------------------------------------------

// BalancePoint holds one rank count's per-loop code balances.
type BalancePoint struct {
	Ranks   int
	Balance map[string]float64 // loop -> byte/it
}

// Figure3CodeBalance sweeps rank counts and reports per-loop byte/it.
func Figure3CodeBalance(o Options) ([]BalancePoint, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(1)
	if err != nil {
		return nil, nil, err
	}
	to.HotspotOnly = true
	spec := to.Machine
	ranks := o.rankList(spec.Cores())

	pts := make([]BalancePoint, len(ranks))
	err = sweep.ForEach(context.Background(), experimentWorkers, len(ranks), func(i int) error {
		oo := to
		oo.Ranks = ranks[i]
		res, err := cloverleaf.RunTraffic(oo)
		if err != nil {
			return err
		}
		bp := BalancePoint{Ranks: ranks[i], Balance: map[string]float64{}}
		for name, lt := range res.Loops {
			bp.Balance[name] = lt.BytesPerIt(res.InnerCells)
		}
		pts[i] = bp
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	names := model.HotspotLoopNames()
	header := append([]string{"ranks"}, names...)
	t := csvout.New(header...)
	for _, p := range pts {
		row := make([]interface{}, 0, len(names)+1)
		row = append(row, p.Ranks)
		for _, n := range names {
			row = append(row, p.Balance[n])
		}
		t.Add(row...)
	}
	return pts, t, nil
}

// ---------------------------------------------------------------------
// E5 — Figure 4: relative MPI time distribution.
// ---------------------------------------------------------------------

// MPIShare is one rank count's runtime distribution in percent.
type MPIShare struct {
	Ranks                                      int
	Serial, Waitall, Allreduce, Isend, ReduceP float64
}

// Figure4MPIShare models the serial/MPI runtime split for the paper's
// rank selection {2,17,18,19,37,38,71,72}.
func Figure4MPIShare(o Options) ([]MPIShare, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(1)
	if err != nil {
		return nil, nil, err
	}
	ranks := o.Ranks
	if len(ranks) == 0 {
		ranks = []int{2, 17, 18, 19, 37, 38, 71, 72}
	}
	t := csvout.New("ranks", "serial_pct", "waitall_pct", "allreduce_pct", "isend_pct", "reduce_pct")
	out := make([]MPIShare, 0, len(ranks))
	for _, n := range ranks {
		oo := to
		oo.Ranks = n
		m, err := cloverleaf.ModelNode(oo)
		if err != nil {
			return nil, nil, err
		}
		total := m.TotalStepSeconds
		s := MPIShare{
			Ranks:     n,
			Serial:    100 * m.StepSeconds / total,
			Waitall:   100 * m.MPIPerStep.Waitall / total,
			Allreduce: 100 * m.MPIPerStep.Allreduce / total,
			Isend:     100 * m.MPIPerStep.Isend / total,
			ReduceP:   100 * m.MPIPerStep.Reduce / total,
		}
		out = append(out, s)
		t.Add(n, s.Serial, s.Waitall, s.Allreduce, s.Isend, s.ReduceP)
	}
	return out, t, nil
}

// ---------------------------------------------------------------------
// E6/E10/E11 — Figures 5, 9, 10: store ratio microbenchmarks.
// ---------------------------------------------------------------------

// StorePoint is one core count's ratios for the six series.
type StorePoint struct {
	Cores  int
	Normal [3]float64 // ST-1..ST-3
	NT     [3]float64 // ST-NT-1..ST-NT-3
}

// FigureStoreRatio sweeps core counts for 1-3 store streams, with and
// without NT stores, on the configured machine.
func FigureStoreRatio(o Options) ([]StorePoint, *csvout.Table, error) {
	o = o.withDefaults()
	spec, err := o.machine()
	if err != nil {
		return nil, nil, err
	}
	cores := o.rankList(spec.Cores())
	pts := make([]StorePoint, len(cores))
	err = sweep.ForEach(context.Background(), experimentWorkers, len(cores), func(i int) error {
		n := cores[i]
		p := StorePoint{Cores: n}
		for s := 1; s <= 3; s++ {
			r, err := bench.RunStore(bench.StoreOptions{
				Machine: spec, Streams: s, Cores: n, BytesPerStream: 2 << 20, Seed: o.Seed})
			if err != nil {
				return err
			}
			p.Normal[s-1] = r.Ratio()
			rn, err := bench.RunStore(bench.StoreOptions{
				Machine: spec, Streams: s, NT: true, Cores: n, BytesPerStream: 2 << 20, Seed: o.Seed})
			if err != nil {
				return err
			}
			p.NT[s-1] = rn.Ratio()
		}
		pts[i] = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := csvout.New("cores", "st1", "st2", "st3", "st_nt1", "st_nt2", "st_nt3")
	for _, p := range pts {
		t.Add(p.Cores, p.Normal[0], p.Normal[1], p.Normal[2], p.NT[0], p.NT[1], p.NT[2])
	}
	return pts, t, nil
}

// ---------------------------------------------------------------------
// E7 — Figure 6: copy-kernel data volumes vs thread count.
// ---------------------------------------------------------------------

// CopyVolumePoint is one thread count's per-iteration volumes.
type CopyVolumePoint struct {
	Threads               int
	ReadPerIt, WritePerIt float64
	SpecI2MPerIt          float64
}

// Figure6CopyVolumes sweeps thread counts of the copy kernel on one
// socket (the paper plots 1..36).
func Figure6CopyVolumes(o Options) ([]CopyVolumePoint, *csvout.Table, error) {
	o = o.withDefaults()
	spec, err := o.machine()
	if err != nil {
		return nil, nil, err
	}
	threads := o.Ranks
	if len(threads) == 0 {
		threads = o.rankList(spec.CoresPerSocket)
	}
	t := csvout.New("threads", "read_bpi", "write_bpi", "speci2m_bpi")
	out := make([]CopyVolumePoint, 0, len(threads))
	for _, n := range threads {
		r, err := bench.RunCopy(bench.CopyOptions{Machine: spec, Cores: n, Elems: 1 << 19, Seed: o.Seed})
		if err != nil {
			return nil, nil, err
		}
		p := CopyVolumePoint{Threads: n, ReadPerIt: r.ReadPerIt(), WritePerIt: r.WritePerIt(), SpecI2MPerIt: r.ItoMPerIt()}
		out = append(out, p)
		t.Add(n, p.ReadPerIt, p.WritePerIt, p.SpecI2MPerIt)
	}
	return out, t, nil
}

// ---------------------------------------------------------------------
// E8 — Figure 7: refined model vs full-node measurement.
// ---------------------------------------------------------------------

// Figure7Row is one loop's Fig. 7 comparison.
type Figure7Row struct {
	Loop          string
	PredictionMin float64 // minimum code balance (no WA)
	Prediction    float64 // refined model with SpecI2M store factor
	Original      float64 // simulated original code, 72 ranks
	Optimized     float64 // simulated NT + restructured loops, 72 ranks
}

// Figure7RefinedModel compares the phenomenological model against the
// simulated full-node measurement, original and optimized builds.
func Figure7RefinedModel(o Options) ([]Figure7Row, *csvout.Table, error) {
	o = o.withDefaults()
	to, err := o.trafficOpts(0)
	if err != nil {
		return nil, nil, err
	}
	spec := to.Machine
	to.Ranks = spec.Cores()
	to.HotspotOnly = true

	orig, err := cloverleaf.RunTraffic(to)
	if err != nil {
		return nil, nil, err
	}
	toOpt := to
	toOpt.NTStores = true
	toOpt.OptimizeLoops = true
	opt, err := cloverleaf.RunTraffic(toOpt)
	if err != nil {
		return nil, nil, err
	}

	const storeFactor = 1.2 // the paper's phenomenological ICX factor
	ntRevert := spec.NTRevert(1.0)

	rows := make([]Figure7Row, 0, len(model.Table1))
	t := csvout.New("loop", "prediction_min", "prediction", "original_meas", "optimized_meas")
	ineligible := map[string]bool{"ac01": true, "ac02": true, "ac05": true, "ac06": true}
	for _, r := range model.Table1 {
		lo, lp := orig.Loop(r.Name), opt.Loop(r.Name)
		row := Figure7Row{
			Loop:          r.Name,
			PredictionMin: float64(r.BytesMin()),
			Prediction:    r.RefinedPrediction(storeFactor, !ineligible[r.Name]),
			Original:      lo.BytesPerIt(orig.InnerCells),
			Optimized:     lp.BytesPerIt(opt.InnerCells),
		}
		_ = ntRevert
		rows = append(rows, row)
		t.Add(row.Loop, row.PredictionMin, row.Prediction, row.Original, row.Optimized)
	}
	return rows, t, nil
}

// ---------------------------------------------------------------------
// E9/E12 — Figures 8, 11: halo-copy read/write ratio.
// ---------------------------------------------------------------------

// HaloPoint is one (dimension, halo) measurement.
type HaloPoint struct {
	Inner, Halo int
	PFOff       bool
	RWRatio     float64
}

// FigureHaloCopy sweeps halo sizes 0..17 for inner dimensions 216, 530,
// 1920 on the full node; withPFOff additionally repeats the sweep with
// prefetchers disabled (Fig. 8's "PF off" series).
func FigureHaloCopy(o Options, withPFOff bool) ([]HaloPoint, *csvout.Table, error) {
	o = o.withDefaults()
	spec, err := o.machine()
	if err != nil {
		return nil, nil, err
	}
	dims := []int{216, 530, 1920}
	pf := []bool{false}
	if withPFOff {
		pf = []bool{false, true}
	}
	type job struct {
		dim, halo int
		pfoff     bool
	}
	var jobs []job
	for _, pfoff := range pf {
		for _, d := range dims {
			for h := 0; h <= 17; h++ {
				jobs = append(jobs, job{d, h, pfoff})
			}
		}
	}
	pts := make([]HaloPoint, len(jobs))
	if err := sweep.ForEach(context.Background(), experimentWorkers, len(jobs), func(i int) error {
		j := jobs[i]
		r, err := bench.RunCopy(bench.CopyOptions{
			Machine: spec, Cores: spec.Cores(), Elems: 1 << 18,
			Inner: j.dim, Halo: j.halo, PFOff: j.pfoff, Seed: o.Seed})
		if err != nil {
			return err
		}
		pts[i] = HaloPoint{Inner: j.dim, Halo: j.halo, PFOff: j.pfoff, RWRatio: r.RWRatio()}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	sort.SliceStable(pts, func(a, b int) bool {
		if pts[a].PFOff != pts[b].PFOff {
			return !pts[a].PFOff
		}
		if pts[a].Inner != pts[b].Inner {
			return pts[a].Inner < pts[b].Inner
		}
		return pts[a].Halo < pts[b].Halo
	})
	t := csvout.New("inner", "halo", "pf_off", "rw_ratio")
	for _, p := range pts {
		t.Add(p.Inner, p.Halo, p.PFOff, p.RWRatio)
	}
	return pts, t, nil
}

// AverageRatio returns the mean RW ratio of the points matching inner
// and prefetch state (used by tests and EXPERIMENTS.md).
func AverageRatio(pts []HaloPoint, inner int, pfOff bool) float64 {
	var s float64
	n := 0
	for _, p := range pts {
		if p.Inner == inner && p.PFOff == pfOff {
			s += p.RWRatio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
