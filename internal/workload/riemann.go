package workload

import (
	"cloversim/internal/riemann"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// riemannLoop builds the profile write-out loop: three store streams,
// no reads (the sampled states come from registers/compute).
func riemannLoop(c Config) (*trace.Loop, trace.Bounds) {
	ar := trace.NewArena(true)
	rho := ar.Alloc("rho", 1, c.MeshX, 1, c.MeshY)
	u := ar.Alloc("u", 1, c.MeshX, 1, c.MeshY)
	p := ar.Alloc("p", 1, c.MeshX, 1, c.MeshY)
	l := &trace.Loop{
		Name: "riemann_profile",
		Writes: []trace.Write{
			{A: rho, NT: true},
			{A: u},
			{A: p},
		},
		FlopsPerIt: 12, // per-cell sampling cost estimate
		Eligible:   true,
	}
	return l, trace.Bounds{JLo: 1, JHi: c.MeshX, KLo: 1, KHi: c.MeshY}
}

// riemannRun couples the exact Riemann solver (the repo's
// hydrodynamics ground truth) with the store path: it solves the Sod
// problem, then writes the sampled rho/u/p profiles out as three pure
// store streams — the post-processing I/O shape of a solver, and the
// 3-stream pure-store case of Fig. 5. Mesh semantics: X sample cells
// per profile, Y profile rows (time snapshots).
func riemannRun(c Config) (sweep.Metrics, error) {
	sol, err := riemann.Sod().Solve()
	if err != nil {
		return nil, err
	}
	states := sol.Profile(0.2, 0, 1, 0.5, c.MeshX)
	stats := riemann.Stats(states)

	l, b := riemannLoop(c)
	x := newKernelExecutor(c)
	cnt, iters := x.Run(l, b), float64(b.Iterations())

	var out sweep.Metrics
	out.Add("riemann_pstar", sol.PStar)
	out.Add("riemann_ustar", sol.UStar)
	out.Add("riemann_rho_mean", stats.MeanRho)
	out.Add("riemann_write_bpi", float64(cnt.WriteBytes())/iters)
	out.Add("riemann_itom_bpi", float64(cnt.ItoMLines*64)/iters)
	// Store ratio over the 24 byte/it initiated (Fig. 5 y axis): 2.0 =
	// every store pays a write-allocate read, 1.0 = all evaded.
	out.Add("riemann_store_ratio", float64(cnt.TotalBytes())/(24*iters))
	return out, nil
}

// riemannAnalytic returns the exact star state — the solver's own
// closed-form ground truth — plus the store-traffic bounds of the
// write-out loop.
func riemannAnalytic(Config) (sweep.Metrics, bool) {
	sol, err := riemann.Sod().Solve()
	if err != nil {
		return nil, false
	}
	var out sweep.Metrics
	out.Add("riemann_pstar", sol.PStar)
	out.Add("riemann_ustar", sol.UStar)
	out.Add("riemann_bytes_min", 24)
	out.Add("riemann_bytes_wa", 48)
	return out, true
}
