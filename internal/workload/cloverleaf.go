package workload

import (
	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/model"
	"cloversim/internal/sweep"
)

// cloverleafRun runs the paper's subject: the patched CloverLeaf hydro
// step traffic study plus time model at the scenario's rank count, and
// the store/copy microbenchmarks at the scenario's thread count, all
// under the scenario's evasion mode.
func cloverleafRun(c Config) (sweep.Metrics, error) {
	rows, err := cloverleaf.RowLimit(c.MaxRows)
	if err != nil {
		return nil, err
	}
	to := cloverleaf.TrafficOptions{
		Machine:       c.Machine,
		Ranks:         c.Ranks,
		GridX:         c.MeshX,
		GridY:         c.MeshY,
		MaxRows:       rows,
		AlignArrays:   true,
		NTStores:      c.Mode.NTStores,
		OptimizeLoops: c.Mode.OptimizeLoops,
		SpecI2MOff:    c.Mode.SpecI2MOff,
		PFOff:         c.Mode.PFOff,
		Seed:          c.Seed,
		Memo:          c.Memo,
	}
	m, err := cloverleaf.ModelNode(to)
	if err != nil {
		return nil, err
	}

	var out sweep.Metrics
	out.Add("step_sec", m.StepSeconds)
	out.Add("total_step_sec", m.TotalStepSeconds)
	out.Add("mpi_sec", m.MPIPerStep.Total())
	out.Add("bandwidth_gbs", m.BandwidthBytes/1e9)
	out.Add("bytes_per_cell", m.Traffic.BytesPerStep()/m.Traffic.InnerCells)

	// The microbenchmarks honor the SpecI2M MSR knob via a spec copy.
	bspec := c.EffectiveSpec()
	st, err := bench.RunStore(bench.StoreOptions{
		Machine: bspec, Streams: 1, NT: c.Mode.NTStores, Cores: c.Threads,
		BytesPerStream: 2 << 20, PFOff: c.Mode.PFOff, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	out.Add("store_ratio", st.Ratio())
	cp, err := bench.RunCopy(bench.CopyOptions{
		Machine: bspec, Cores: c.Threads, Elems: 1 << 18,
		NT: c.Mode.NTStores, PFOff: c.Mode.PFOff, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	out.Add("copy_read_bpi", cp.ReadPerIt())
	out.Add("copy_write_bpi", cp.WritePerIt())
	out.Add("copy_itom_bpi", cp.ItoMPerIt())
	return out, nil
}

// cloverleafAnalytic aggregates the Table I code-balance model over
// the hotspot loops: the whole-step bytes per cell with layer
// conditions fulfilled, without and with full write-allocates (the
// no-evasion bound).
func cloverleafAnalytic(Config) (sweep.Metrics, bool) {
	var min, wa float64
	for _, r := range model.Table1 {
		min += float64(r.BytesMin())
		wa += float64(r.BytesLCFWA())
	}
	var out sweep.Metrics
	out.Add("table1_bytes_min", min)
	out.Add("table1_bytes_lcf_wa", wa)
	return out, true
}
