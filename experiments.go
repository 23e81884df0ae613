package cloversim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/csvout"
	"cloversim/internal/decomp"
	"cloversim/internal/model"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// seed is the store-engine PRNG seed of every figure.
const seed = 0x5eed

// trafficOpts resolves o into the common traffic-study options. Every
// study of one runner replays its loops through the memo ctx carries,
// or through one memo for the whole figure when ctx carries none.
func (o Options) trafficOpts(ctx context.Context, ranks int) (cloverleaf.TrafficOptions, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return cloverleaf.TrafficOptions{}, err
	}
	rows, _ := cloverleaf.RowLimit(o.MaxRows) // resolve refused the values RowLimit refuses
	return cloverleaf.TrafficOptions{
		Machine:     spec,
		Ranks:       ranks,
		MaxRows:     rows,
		AlignArrays: true,
		Seed:        seed,
		Memo:        trace.ContextMemo(ctx),
	}, nil
}

// tableOf builds a table from rows computed in order.
func tableOf(header []string, rows [][]any) *csvout.Table {
	t := csvout.New(header...)
	for _, r := range rows {
		t.Add(r...)
	}
	return t
}

// ---------------------------------------------------------------------
// E1 — Listing 2: gprofng runtime profile of a 72-rank run.
// ---------------------------------------------------------------------

// Listing2Profile models the per-function CPU-time profile: the total,
// then the ten kernels with the most exclusive seconds, ties by name.
func Listing2Profile(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 0)
	if err != nil {
		return nil, err
	}
	to.Ranks = to.Machine.Cores()
	m, err := cloverleaf.ModelNode(to)
	if err != nil {
		return nil, err
	}
	type kernel struct {
		name string
		sec  float64
	}
	// Scale per-step aggregate CPU seconds to the Tiny run (400 steps).
	ks := make([]kernel, 0, len(m.KernelSeconds))
	for name, s := range m.KernelSeconds {
		ks = append(ks, kernel{name, s * 400})
	}
	slices.SortFunc(ks, func(a, b kernel) int {
		return cmp.Or(cmp.Compare(b.sec, a.sec), strings.Compare(a.name, b.name))
	})
	var total float64
	for _, k := range ks {
		total += k.sec
	}
	t := csvout.New("name", "excl_sec", "cpu_pct")
	t.Add("<Total>", total, 100.0)
	for _, k := range ks[:min(10, len(ks))] {
		t.Add(k.name, k.sec, 100*k.sec/total)
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E2 — Table I: analytic loop models and measured single-core balance.
// ---------------------------------------------------------------------

// TableI reproduces Table I: the four analytic byte/it columns plus the
// simulated single-core code balance next to the paper's measurement.
func TableI(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, err
	}
	to.HotspotOnly = true
	res, err := cloverleaf.RunTraffic(to)
	if err != nil {
		return nil, err
	}
	t := csvout.New("loop", "arrays", "rd_lcf", "rd_lcb", "wr", "rd_wr", "flops",
		"bpi_min", "bpi_lcf_wa", "bpi_lcb", "bpi_max", "bpi_paper_meas", "bpi_simulated")
	for _, r := range model.Table1 {
		lt := res.Loop(r.Name)
		if lt == nil {
			return nil, fmt.Errorf("cloversim: loop %s missing from traffic study", r.Name)
		}
		t.Add(r.Name, r.Arrays, r.RDLCF, r.RDLCB, r.WR, r.RDWR, r.FlopsIt,
			r.BytesMin(), r.BytesLCFWA(), r.BytesLCB(), r.BytesMax(),
			r.MeasuredSingleCore, lt.BytesPerIt(res.InnerCells))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E3 — Figure 2: speedup and memory bandwidth vs rank count.
// ---------------------------------------------------------------------

// Figure2Scaling models the scaling curve with compact pinning. The
// speedup is over the serial run, which is modeled as well when the
// rank list leaves it out.
func Figure2Scaling(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, err
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
		return nil, err
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
			return nil, err
		}
		serial = m.TotalStepSeconds
	}
	t := csvout.New("ranks", "speedup", "bandwidth_gbs", "step_sec", "mpi_sec", "prime", "inner_dim")
	for _, m := range models {
		n := m.Ranks
		t.Add(n, serial/m.TotalStepSeconds, m.BandwidthBytes/1e9, m.StepSeconds, m.MPIPerStep.Total(),
			decomp.IsPrime(n), decomp.InnerDim(n, 15360, 15360))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E4 — Figure 3: per-loop code balance vs rank count.
// ---------------------------------------------------------------------

// Figure3CodeBalance sweeps rank counts and reports per-loop byte/it.
func Figure3CodeBalance(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, err
	}
	to.HotspotOnly = true
	ranks := o.rankList(to.Machine.Cores())
	names := model.HotspotLoopNames()
	rows := make([][]any, len(ranks))
	err = sweep.ForEach(ctx, 0, len(ranks), func(i int) error {
		oo := to
		oo.Ranks = ranks[i]
		res, err := cloverleaf.RunTraffic(oo)
		if err != nil {
			return err
		}
		rows[i] = []any{ranks[i]}
		for _, n := range names {
			rows[i] = append(rows[i], res.Loop(n).BytesPerIt(res.InnerCells))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tableOf(append([]string{"ranks"}, names...), rows), nil
}

// ---------------------------------------------------------------------
// E5 — Figure 4: relative MPI time distribution.
// ---------------------------------------------------------------------

// Figure4MPIShare models the serial/MPI runtime split in percent. Its
// default ranks follow the machine's topology as the paper's selection
// {2,17,18,19,37,38,71,72} follows ICX's: 2, d-1, d, d+1, s+1, s+2, n-1
// and n for d cores per ccNUMA domain, s per socket and n per node,
// sorted, without repeats and within 1..n.
func Figure4MPIShare(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 1)
	if err != nil {
		return nil, err
	}
	ranks := o.Ranks
	if len(ranks) == 0 {
		m := to.Machine
		d, s, n := m.CoresPerDomain(), m.CoresPerSocket, m.Cores()
		for _, r := range []int{2, d - 1, d, d + 1, s + 1, s + 2, n - 1, n} {
			if r >= 1 && r <= n {
				ranks = append(ranks, r)
			}
		}
		slices.Sort(ranks)
		ranks = slices.Compact(ranks)
	}
	t := csvout.New("ranks", "serial_pct", "waitall_pct", "allreduce_pct", "isend_pct", "reduce_pct")
	for _, n := range ranks {
		oo := to
		oo.Ranks = n
		m, err := cloverleaf.ModelNode(oo)
		if err != nil {
			return nil, err
		}
		total := m.TotalStepSeconds
		t.Add(n, 100*m.StepSeconds/total, 100*m.MPIPerStep.Waitall/total,
			100*m.MPIPerStep.Allreduce/total, 100*m.MPIPerStep.Isend/total,
			100*m.MPIPerStep.Reduce/total)
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E6/E10/E11 — Figures 5, 9, 10: store ratio microbenchmarks.
// ---------------------------------------------------------------------

// FigureStoreRatio sweeps core counts for 1-3 store streams, with and
// without NT stores (series ST-1..ST-3 and ST-NT-1..ST-NT-3), on the
// configured machine.
func FigureStoreRatio(ctx context.Context, o Options) (*csvout.Table, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return nil, err
	}
	cores := o.rankList(spec.Cores())
	rows := make([][]any, len(cores))
	err = sweep.ForEach(ctx, 0, len(cores), func(i int) error {
		rows[i] = []any{cores[i]}
		for _, nt := range []bool{false, true} {
			for s := 1; s <= 3; s++ {
				r, err := bench.RunStore(bench.StoreOptions{
					Machine: spec, Streams: s, NT: nt, Cores: cores[i], BytesPerStream: 2 << 20, Seed: seed})
				if err != nil {
					return err
				}
				rows[i] = append(rows[i], r.Ratio())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tableOf([]string{"cores", "st1", "st2", "st3", "st_nt1", "st_nt2", "st_nt3"}, rows), nil
}

// ---------------------------------------------------------------------
// E7 — Figure 6: copy-kernel data volumes vs thread count.
// ---------------------------------------------------------------------

// Figure6CopyVolumes sweeps thread counts of the copy kernel on one
// socket (the paper plots 1..36) and reports per-iteration volumes.
func Figure6CopyVolumes(ctx context.Context, o Options) (*csvout.Table, error) {
	o, spec, err := o.resolve()
	if err != nil {
		return nil, err
	}
	t := csvout.New("threads", "read_bpi", "write_bpi", "speci2m_bpi")
	for _, n := range o.rankList(spec.CoresPerSocket) {
		r, err := bench.RunCopy(bench.CopyOptions{Machine: spec, Cores: n, Elems: 1 << 19, Seed: seed})
		if err != nil {
			return nil, err
		}
		t.Add(n, r.ReadPerIt(), r.WritePerIt(), r.ItoMPerIt())
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E8 — Figure 7: refined model vs full-node measurement.
// ---------------------------------------------------------------------

// Figure7RefinedModel compares the phenomenological model against the
// simulated full-node measurement, original and optimized builds. Per
// loop: the minimum code balance (no WA), the refined model with the
// SpecI2M store factor where the original build's loop is eligible for
// SpecI2M, and the simulated original code and optimized (NT +
// restructured loops) build on every core.
func Figure7RefinedModel(ctx context.Context, o Options) (*csvout.Table, error) {
	to, err := o.trafficOpts(ctx, 0)
	if err != nil {
		return nil, err
	}
	to.Ranks = to.Machine.Cores()
	to.HotspotOnly = true

	orig, err := cloverleaf.RunTraffic(to)
	if err != nil {
		return nil, err
	}
	toOpt := to
	toOpt.NTStores = true
	toOpt.OptimizeLoops = true
	opt, err := cloverleaf.RunTraffic(toOpt)
	if err != nil {
		return nil, err
	}

	const storeFactor = 1.2 // the paper's phenomenological ICX factor

	t := csvout.New("loop", "prediction_min", "prediction", "original_meas", "optimized_meas")
	for _, r := range model.Table1 {
		l := orig.Loop(r.Name)
		t.Add(r.Name, float64(r.BytesMin()), r.RefinedPrediction(storeFactor, l.Eligible),
			l.BytesPerIt(orig.InnerCells), opt.Loop(r.Name).BytesPerIt(opt.InnerCells))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// E9/E12 — Figures 8, 11: halo-copy read/write ratio.
// ---------------------------------------------------------------------

// FigureHaloCopy sweeps halo sizes 0..17 for inner dimensions 216, 530,
// 1920 on the full node, with prefetchers on and then off (Fig. 8's
// "PF off" series).
func FigureHaloCopy(ctx context.Context, o Options) (*csvout.Table, error) {
	_, spec, err := o.resolve()
	if err != nil {
		return nil, err
	}
	type point struct {
		inner, halo int
		pfOff       bool
	}
	var pts []point
	for _, pfOff := range []bool{false, true} {
		for _, d := range []int{216, 530, 1920} {
			for h := 0; h <= 17; h++ {
				pts = append(pts, point{d, h, pfOff})
			}
		}
	}
	ratios := make([]float64, len(pts))
	if err := sweep.ForEach(ctx, 0, len(pts), func(i int) error {
		p := pts[i]
		r, err := bench.RunCopy(bench.CopyOptions{
			Machine: spec, Cores: spec.Cores(), Elems: 1 << 18,
			Inner: p.inner, Halo: p.halo, PFOff: p.pfOff, Seed: seed})
		if err != nil {
			return err
		}
		ratios[i] = r.RWRatio()
		return nil
	}); err != nil {
		return nil, err
	}
	t := csvout.New("inner", "halo", "pf_off", "rw_ratio")
	for i, p := range pts {
		t.Add(p.inner, p.halo, p.pfOff, ratios[i])
	}
	return t, nil
}
