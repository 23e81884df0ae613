package cloversim

import (
	"context"
	"fmt"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/csvout"
	"cloversim/internal/decomp"
	"cloversim/internal/model"
	"cloversim/internal/profiler"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// trafficOpts resolves o into the common traffic-study options. Every
// study of one runner replays its loops through the memo ctx carries,
// or through one memo for the whole figure when ctx carries none.
func (o Options) trafficOpts(ctx context.Context, ranks int) (cloverleaf.TrafficOptions, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return cloverleaf.TrafficOptions{}, err
	}
	return cloverleaf.TrafficOptions{
		Machine:     spec,
		Ranks:       ranks,
		MaxRows:     o.MaxRows,
		AlignArrays: true,
		Seed:        o.Seed,
		Memo:        trace.ContextMemo(ctx),
	}, nil
}

// ---------------------------------------------------------------------
// E1 — Listing 2: gprofng runtime profile of a 72-rank run.
// ---------------------------------------------------------------------

// Listing2Profile models the per-function CPU-time profile.
func Listing2Profile(ctx context.Context, o Options) (*profiler.Profile, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	to.Ranks = to.Machine.Cores()
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
func TableI(ctx context.Context, o Options) ([]TableIRow, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
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

// Figure2Scaling models the scaling curve with compact pinning. The
// speedup is over the serial run, which is modeled as well when the
// rank list leaves it out.
func Figure2Scaling(ctx context.Context, o Options) ([]cloverleaf.ScalingPoint, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	ranks := o.rankList(to.Machine.Cores())
	models := make([]*cloverleaf.NodeModel, len(ranks))
	err = sweep.ForEach(ctx, 0, len(ranks), func(i int) error {
		oo := to
		oo.Ranks = ranks[i]
		var err error
		models[i], err = cloverleaf.ModelNode(oo)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	serial := -1.0
	for _, m := range models {
		if m.Ranks == 1 {
			serial = m.TotalStepSeconds
		}
	}
	if serial < 0 {
		m, err := cloverleaf.ModelNode(to) // to is the serial run
		if err != nil {
			return nil, nil, err
		}
		serial = m.TotalStepSeconds
	}
	pts := make([]cloverleaf.ScalingPoint, len(models))
	t := csvout.New("ranks", "speedup", "bandwidth_gbs", "step_sec", "mpi_sec", "prime", "inner_dim")
	for i, m := range models {
		n := m.Ranks
		p := cloverleaf.ScalingPoint{
			Ranks:          n,
			Speedup:        serial / m.TotalStepSeconds,
			BandwidthGBs:   m.BandwidthBytes / 1e9,
			StepSeconds:    m.StepSeconds,
			MPISeconds:     m.MPIPerStep.Total(),
			Prime:          decomp.IsPrime(n),
			InnerDimension: decomp.InnerDim(n, 15360, 15360),
		}
		pts[i] = p
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
func Figure3CodeBalance(ctx context.Context, o Options) ([]BalancePoint, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	to.HotspotOnly = true
	ranks := o.rankList(to.Machine.Cores())
	pts := make([]BalancePoint, len(ranks))
	err = sweep.ForEach(ctx, 0, len(ranks), func(i int) error {
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
func Figure4MPIShare(ctx context.Context, o Options) ([]MPIShare, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
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
func FigureStoreRatio(ctx context.Context, o Options) ([]StorePoint, *csvout.Table, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return nil, nil, err
	}
	cores := o.rankList(spec.Cores())
	pts := make([]StorePoint, len(cores))
	err = sweep.ForEach(ctx, 0, len(cores), func(i int) error {
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
func Figure6CopyVolumes(ctx context.Context, o Options) ([]CopyVolumePoint, *csvout.Table, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return nil, nil, err
	}
	threads := o.rankList(spec.CoresPerSocket)
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
func Figure7RefinedModel(ctx context.Context, o Options) ([]Figure7Row, *csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	to.Ranks = to.Machine.Cores()
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
func FigureHaloCopy(ctx context.Context, o Options, withPFOff bool) ([]HaloPoint, *csvout.Table, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return nil, nil, err
	}
	pf := []bool{false}
	if withPFOff {
		pf = []bool{false, true}
	}
	var pts []HaloPoint
	for _, pfoff := range pf {
		for _, d := range []int{216, 530, 1920} {
			for h := 0; h <= 17; h++ {
				pts = append(pts, HaloPoint{Inner: d, Halo: h, PFOff: pfoff})
			}
		}
	}
	if err := sweep.ForEach(ctx, 0, len(pts), func(i int) error {
		p := &pts[i]
		r, err := bench.RunCopy(bench.CopyOptions{
			Machine: spec, Cores: spec.Cores(), Elems: 1 << 18,
			Inner: p.Inner, Halo: p.Halo, PFOff: p.PFOff, Seed: o.Seed})
		if err != nil {
			return err
		}
		p.RWRatio = r.RWRatio()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	t := csvout.New("inner", "halo", "pf_off", "rw_ratio")
	for _, p := range pts {
		t.Add(p.Inner, p.Halo, p.PFOff, p.RWRatio)
	}
	return pts, t, nil
}

// AverageRatio returns the mean RW ratio of the points matching inner
// and prefetch state.
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
