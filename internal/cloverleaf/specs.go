package cloverleaf

import (
	"fmt"

	"cloversim/internal/trace"
)

// TrafficChunk mirrors a chunk's array geometry in the simulated address
// space of internal/trace, so the hotspot loops can be replayed through
// the cache simulator without executing physics.
type TrafficChunk struct {
	XMin, XMax, YMin, YMax int
	Arrays                 map[string]*trace.Array
}

// NewTrafficChunk allocates all CloverLeaf arrays for the local cell
// range [xmin..xmax] x [ymin..ymax]. If maxRows > 0, the y extent is
// truncated (traffic per iteration is row-count invariant once layer
// conditions are warm); aligned selects 64-byte array alignment
// (the ALIGN_ARRAYS build knob).
func NewTrafficChunk(xmin, xmax, ymin, ymax, maxRows int, aligned bool) *TrafficChunk {
	if maxRows > 0 && ymax-ymin+1 > maxRows {
		ymax = ymin + maxRows - 1
	}
	t := &TrafficChunk{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax,
		Arrays: map[string]*trace.Array{}}
	ar := trace.NewArena(aligned)
	jl, jh := xmin-2, xmax+2
	kl, kh := ymin-2, ymax+2
	jhn, khn := xmax+3, ymax+3

	cell := func(name string) { t.Arrays[name] = ar.Alloc(name, jl, jh, kl, kh) }
	node := func(name string) { t.Arrays[name] = ar.Alloc(name, jl, jhn, kl, khn) }
	faceX := func(name string) { t.Arrays[name] = ar.Alloc(name, jl, jhn, kl, kh) }
	faceY := func(name string) { t.Arrays[name] = ar.Alloc(name, jl, jh, kl, khn) }

	for _, n := range []string{"density0", "density1", "energy0", "energy1",
		"pressure", "viscosity", "soundspeed", "volume"} {
		cell(n)
	}
	for _, n := range []string{"xvel0", "xvel1", "yvel0", "yvel1",
		"node_flux", "node_mass_post", "node_mass_pre", "mom_flux",
		"pre_vol", "post_vol", "ener_flux"} {
		node(n)
	}
	for _, n := range []string{"vol_flux_x", "mass_flux_x", "xarea"} {
		faceX(n)
	}
	for _, n := range []string{"vol_flux_y", "mass_flux_y", "yarea"} {
		faceY(n)
	}
	return t
}

// a returns the named array, panicking on typos (programming error).
func (t *TrafficChunk) a(name string) *trace.Array {
	arr, ok := t.Arrays[name]
	if !ok {
		panic(fmt.Sprintf("cloverleaf: unknown traffic array %q", name))
	}
	return arr
}

// LoopInstance binds one loop spec to its iteration space and call
// frequency within the hydro cycle.
type LoopInstance struct {
	Loop *trace.Loop
	// Bounds of one execution over this chunk.
	Bounds trace.Bounds
	// CallsPerStep is the average number of executions per hydro step
	// (direction-alternating sweeps average to halves).
	CallsPerStep float64
	// Kernel is the owning hotspot function (for the Listing 2 profile).
	Kernel string
}

func rd(a *trace.Array, dj, dk int) trace.Access { return trace.Access{A: a, DJ: dj, DK: dk} }
func wr(a *trace.Array) trace.Write              { return trace.Write{A: a, NT: true} }
func wrUpd(a *trace.Array) trace.Write           { return trace.Write{A: a, Update: true} }

// HotspotLoops builds the 22 Table I loop instances for this chunk.
// The stencil offsets are chosen to reproduce the paper's element counts
// exactly (unit-tested against model.Table1); optimizeLoops restructures
// ac01/ac05 so SpecI2M recognizes their stores (Sec. V-B).
func (t *TrafficChunk) HotspotLoops(optimizeLoops bool) []LoopInstance {
	xm, xM, ym, yM := t.XMin, t.XMax, t.YMin, t.YMax
	full := trace.Bounds{JLo: xm - 2, JHi: xM + 2, KLo: ym - 2, KHi: yM + 2}
	inner := trace.Bounds{JLo: xm, JHi: xM, KLo: ym, KHi: yM}

	vol := t.a("volume")
	vfx, vfy := t.a("vol_flux_x"), t.a("vol_flux_y")
	mfx, mfy := t.a("mass_flux_x"), t.a("mass_flux_y")
	d1, e1 := t.a("density1"), t.a("energy1")
	nf, nmPost, nmPre := t.a("node_flux"), t.a("node_mass_post"), t.a("node_mass_pre")
	mflux := t.a("mom_flux")
	preV, postV, eflux := t.a("pre_vol"), t.a("post_vol"), t.a("ener_flux")
	vel := t.a("xvel1") // representative advected component
	d0, e0 := t.a("density0"), t.a("energy0")
	press, visc := t.a("pressure"), t.a("viscosity")
	xv0, yv0 := t.a("xvel0"), t.a("yvel0")
	xv1, yv1 := t.a("xvel1"), t.a("yvel1")
	xa, ya := t.a("xarea"), t.a("yarea")

	loops := []LoopInstance{
		// ---- advec_mom: volume construction (one variant per step) ----
		{Loop: &trace.Loop{Name: "am00", Eligible: true, FlopsPerIt: 4,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfy, 0, 0), rd(vfy, 0, 1), rd(vfx, 0, 0), rd(vfx, 1, 0)},
			Writes: []trace.Write{wr(postV), wr(preV)},
		}, Bounds: full, CallsPerStep: 1, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am01", Eligible: true, FlopsPerIt: 4,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfx, 0, 0), rd(vfx, 1, 0), rd(vfy, 0, 0), rd(vfy, 0, 1)},
			Writes: []trace.Write{wr(postV), wr(preV)},
		}, Bounds: full, CallsPerStep: 1, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am02", Eligible: true, FlopsPerIt: 2,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfy, 0, 0), rd(vfy, 0, 1)},
			Writes: []trace.Write{wr(postV), wr(preV)},
		}, Bounds: full, CallsPerStep: 1, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am03", Eligible: true, FlopsPerIt: 2,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfx, 0, 0), rd(vfx, 1, 0)},
			Writes: []trace.Write{wr(postV), wr(preV)},
		}, Bounds: full, CallsPerStep: 1, Kernel: "advec_mom_kernel"},

		// ---- advec_mom x sweep (2 velocity components per step) ----
		{Loop: &trace.Loop{Name: "am04", Eligible: true, FlopsPerIt: 4,
			Reads:  []trace.Access{rd(mfx, 0, -1), rd(mfx, 0, 0), rd(mfx, 1, -1), rd(mfx, 1, 0)},
			Writes: []trace.Write{wr(nf)},
		}, Bounds: trace.Bounds{JLo: xm - 2, JHi: xM + 2, KLo: ym, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am05", Eligible: true, FlopsPerIt: 10,
			Reads: []trace.Access{rd(d1, 0, -1), rd(d1, 0, 0), rd(d1, -1, -1), rd(d1, -1, 0),
				rd(postV, 0, -1), rd(postV, 0, 0), rd(postV, -1, -1), rd(postV, -1, 0),
				rd(nf, -1, 0), rd(nf, 0, 0)},
			Writes: []trace.Write{wr(nmPost), wr(nmPre)},
		}, Bounds: trace.Bounds{JLo: xm - 1, JHi: xM + 2, KLo: ym, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am06", Eligible: true, FlopsPerIt: 9,
			Reads: []trace.Access{rd(nf, 0, 0), rd(nmPre, 0, 0), rd(nmPre, 1, 0),
				rd(vel, -1, 0), rd(vel, 0, 0), rd(vel, 1, 0), rd(vel, 2, 0)},
			Writes: []trace.Write{wr(mflux)},
		}, Bounds: trace.Bounds{JLo: xm - 1, JHi: xM + 1, KLo: ym, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am07", Eligible: true, FlopsPerIt: 4,
			Reads: []trace.Access{rd(vel, 0, 0), rd(nmPre, 0, 0),
				rd(mflux, -1, 0), rd(mflux, 0, 0), rd(nmPost, 0, 0)},
			Writes: []trace.Write{wrUpd(vel)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},

		// ---- advec_mom y sweep ----
		{Loop: &trace.Loop{Name: "am08", Eligible: true, FlopsPerIt: 4,
			Reads:  []trace.Access{rd(mfy, -1, 0), rd(mfy, 0, 0), rd(mfy, -1, 1), rd(mfy, 0, 1)},
			Writes: []trace.Write{wr(nf)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym - 2, KHi: yM + 2},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am09", Eligible: true, FlopsPerIt: 10,
			Reads: []trace.Access{rd(d1, 0, -1), rd(d1, 0, 0), rd(d1, -1, -1), rd(d1, -1, 0),
				rd(postV, 0, -1), rd(postV, 0, 0), rd(postV, -1, -1), rd(postV, -1, 0),
				rd(nf, 0, -1), rd(nf, 0, 0)},
			Writes: []trace.Write{wr(nmPost), wr(nmPre)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym - 1, KHi: yM + 2},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am10", Eligible: true, FlopsPerIt: 8,
			Reads: []trace.Access{rd(nf, 0, 0), rd(nmPre, 0, 0),
				rd(vel, 0, 0), rd(vel, 0, 1), rd(vel, 0, 2)},
			Writes: []trace.Write{wr(mflux)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym - 1, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},
		{Loop: &trace.Loop{Name: "am11", Eligible: true, FlopsPerIt: 4,
			Reads: []trace.Access{rd(vel, 0, 0), rd(nmPre, 0, 0),
				rd(mflux, 0, -1), rd(mflux, 0, 0), rd(nmPost, 0, 0)},
			Writes: []trace.Write{wrUpd(vel)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym, KHi: yM + 1},
			CallsPerStep: 2, Kernel: "advec_mom_kernel"},

		// ---- advec_cell x sweep ----
		{Loop: &trace.Loop{Name: "ac00", Eligible: true, FlopsPerIt: 6,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfx, 0, 0), rd(vfx, 1, 0), rd(vfy, 0, 0), rd(vfy, 0, 1)},
			Writes: []trace.Write{wr(preV), wr(postV)},
		}, Bounds: full, CallsPerStep: 0.5, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac01", Eligible: optimizeLoops, FlopsPerIt: 2,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfx, 0, 0), rd(vfx, 1, 0)},
			Writes: []trace.Write{wr(preV), wr(postV)},
		}, Bounds: full, CallsPerStep: 0.5, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac02", Eligible: false, FlopsPerIt: 17,
			Reads: []trace.Access{rd(vfx, 0, 0), rd(preV, -1, 0), rd(preV, 0, 0),
				rd(d1, -2, 0), rd(d1, -1, 0), rd(d1, 0, 0), rd(d1, 1, 0),
				rd(e1, -2, 0), rd(e1, -1, 0), rd(e1, 0, 0), rd(e1, 1, 0)},
			Writes: []trace.Write{wr(mfx), wr(eflux)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 2, KLo: ym, KHi: yM},
			CallsPerStep: 1, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac03", Eligible: true, FlopsPerIt: 10,
			Reads: []trace.Access{rd(d1, 0, 0), rd(e1, 0, 0), rd(preV, 0, 0),
				rd(mfx, 0, 0), rd(mfx, 1, 0), rd(eflux, 0, 0), rd(eflux, 1, 0),
				rd(vfx, 0, 0), rd(vfx, 1, 0)},
			Writes: []trace.Write{wrUpd(d1), wrUpd(e1)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "advec_cell_kernel"},

		// ---- advec_cell y sweep ----
		{Loop: &trace.Loop{Name: "ac04", Eligible: true, FlopsPerIt: 6,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfy, 0, 0), rd(vfy, 0, 1), rd(vfx, 0, 0), rd(vfx, 1, 0)},
			Writes: []trace.Write{wr(preV), wr(postV)},
		}, Bounds: full, CallsPerStep: 0.5, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac05", Eligible: optimizeLoops, FlopsPerIt: 2,
			Reads:  []trace.Access{rd(vol, 0, 0), rd(vfy, 0, 0), rd(vfy, 0, 1)},
			Writes: []trace.Write{wr(preV), wr(postV)},
		}, Bounds: full, CallsPerStep: 0.5, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac06", Eligible: false, FlopsPerIt: 17,
			Reads: []trace.Access{rd(vfy, 0, 0), rd(preV, 0, 0),
				rd(d1, 0, -1), rd(d1, 0, 0), rd(d1, 0, 1),
				rd(e1, 0, -1), rd(e1, 0, 0), rd(e1, 0, 1)},
			Writes: []trace.Write{wr(mfy), wr(eflux)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM, KLo: ym, KHi: yM + 2},
			CallsPerStep: 1, Kernel: "advec_cell_kernel"},
		{Loop: &trace.Loop{Name: "ac07", Eligible: true, FlopsPerIt: 10,
			Reads: []trace.Access{rd(d1, 0, 0), rd(e1, 0, 0), rd(preV, 0, 0),
				rd(mfy, 0, 0), rd(mfy, 0, 1), rd(eflux, 0, 0), rd(eflux, 0, 1),
				rd(vfy, 0, 0), rd(vfy, 0, 1)},
			Writes: []trace.Write{wrUpd(d1), wrUpd(e1)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "advec_cell_kernel"},

		// ---- PdV predictor / corrector ----
		{Loop: &trace.Loop{Name: "pdv00", Eligible: true, FlopsPerIt: 49,
			Reads: []trace.Access{rd(xa, 0, 0), rd(xa, 1, 0),
				rd(ya, 0, 0), rd(ya, 0, 1),
				rd(vol, 0, 0), rd(press, 0, 0), rd(visc, 0, 0),
				rd(d0, 0, 0), rd(e0, 0, 0),
				rd(xv0, 0, 0), rd(xv0, 0, 1), rd(xv0, 1, 0), rd(xv0, 1, 1),
				rd(yv0, 0, 0), rd(yv0, 0, 1), rd(yv0, 1, 0), rd(yv0, 1, 1)},
			Writes: []trace.Write{wr(d1), wr(e1)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "pdv_kernel"},
		{Loop: &trace.Loop{Name: "pdv01", Eligible: true, FlopsPerIt: 45,
			Reads: []trace.Access{rd(xa, 0, 0), rd(xa, 1, 0),
				rd(ya, 0, 0), rd(ya, 0, 1),
				rd(vol, 0, 0), rd(press, 0, 0), rd(visc, 0, 0),
				rd(d0, 0, 0), rd(e0, 0, 0),
				rd(xv0, 0, 0), rd(xv0, 0, 1), rd(xv0, 1, 0), rd(xv0, 1, 1),
				rd(yv0, 0, 0), rd(yv0, 0, 1), rd(yv0, 1, 0), rd(yv0, 1, 1),
				rd(xv1, 0, 0), rd(xv1, 0, 1), rd(xv1, 1, 0), rd(xv1, 1, 1),
				rd(yv1, 0, 0), rd(yv1, 0, 1), rd(yv1, 1, 0), rd(yv1, 1, 1)},
			Writes: []trace.Write{wr(d1), wr(e1)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "pdv_kernel"},
	}
	return loops
}

// AuxLoops builds traffic specs for the non-hotspot kernels so the full
// application profile (Listing 2) and node bandwidth (Fig. 2) include
// the remaining ~31% of the runtime.
func (t *TrafficChunk) AuxLoops() []LoopInstance {
	xm, xM, ym, yM := t.XMin, t.XMax, t.YMin, t.YMax
	inner := trace.Bounds{JLo: xm, JHi: xM, KLo: ym, KHi: yM}
	nodes := trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym, KHi: yM + 1}

	d0, e0 := t.a("density0"), t.a("energy0")
	d1, e1 := t.a("density1"), t.a("energy1")
	press, visc, ss := t.a("pressure"), t.a("viscosity"), t.a("soundspeed")
	vol := t.a("volume")
	xv0, yv0 := t.a("xvel0"), t.a("yvel0")
	xv1, yv1 := t.a("xvel1"), t.a("yvel1")
	xa, ya := t.a("xarea"), t.a("yarea")
	vfx, vfy := t.a("vol_flux_x"), t.a("vol_flux_y")

	return []LoopInstance{
		{Loop: &trace.Loop{Name: "ideal_gas", Eligible: true, FlopsPerIt: 11,
			Reads:  []trace.Access{rd(d0, 0, 0), rd(e0, 0, 0)},
			Writes: []trace.Write{wr(press), wr(ss)},
		}, Bounds: inner, CallsPerStep: 2, Kernel: "ideal_gas_kernel"},
		{Loop: &trace.Loop{Name: "viscosity", Eligible: true, FlopsPerIt: 35,
			Reads: []trace.Access{rd(d0, 0, 0),
				rd(press, -1, 0), rd(press, 0, 0), rd(press, 1, 0), rd(press, 0, -1), rd(press, 0, 1),
				rd(xv0, 0, 0), rd(xv0, 1, 0), rd(xv0, 0, 1), rd(xv0, 1, 1),
				rd(yv0, 0, 0), rd(yv0, 1, 0), rd(yv0, 0, 1), rd(yv0, 1, 1)},
			Writes: []trace.Write{wr(visc)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "viscosity_kernel"},
		{Loop: &trace.Loop{Name: "calc_dt", Eligible: true, FlopsPerIt: 40,
			Reads: []trace.Access{rd(ss, 0, 0), rd(visc, 0, 0), rd(d0, 0, 0), rd(vol, 0, 0),
				rd(xv0, 0, 0), rd(xv0, 1, 0), rd(xv0, 0, 1), rd(xv0, 1, 1),
				rd(yv0, 0, 0), rd(yv0, 1, 0), rd(yv0, 0, 1), rd(yv0, 1, 1)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "calc_dt_kernel"},
		{Loop: &trace.Loop{Name: "accelerate", Eligible: true, FlopsPerIt: 33,
			Reads: []trace.Access{
				rd(d0, -1, -1), rd(d0, 0, -1), rd(d0, -1, 0), rd(d0, 0, 0),
				rd(vol, -1, -1), rd(vol, 0, -1), rd(vol, -1, 0), rd(vol, 0, 0),
				rd(press, -1, -1), rd(press, 0, -1), rd(press, -1, 0), rd(press, 0, 0),
				rd(visc, -1, -1), rd(visc, 0, -1), rd(visc, -1, 0), rd(visc, 0, 0),
				rd(xa, 0, -1), rd(xa, 0, 0), rd(ya, -1, 0), rd(ya, 0, 0),
				rd(xv0, 0, 0), rd(yv0, 0, 0)},
			Writes: []trace.Write{wr(xv1), wr(yv1)},
		}, Bounds: nodes, CallsPerStep: 1, Kernel: "accelerate_kernel"},
		{Loop: &trace.Loop{Name: "flux_calc_x", Eligible: true, FlopsPerIt: 5,
			Reads: []trace.Access{rd(xa, 0, 0),
				rd(xv0, 0, 0), rd(xv0, 0, 1), rd(xv1, 0, 0), rd(xv1, 0, 1)},
			Writes: []trace.Write{wr(vfx)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM + 1, KLo: ym, KHi: yM},
			CallsPerStep: 1, Kernel: "flux_calc_kernel"},
		{Loop: &trace.Loop{Name: "flux_calc_y", Eligible: true, FlopsPerIt: 5,
			Reads: []trace.Access{rd(ya, 0, 0),
				rd(yv0, 0, 0), rd(yv0, 1, 0), rd(yv1, 0, 0), rd(yv1, 1, 0)},
			Writes: []trace.Write{wr(vfy)},
		}, Bounds: trace.Bounds{JLo: xm, JHi: xM, KLo: ym, KHi: yM + 1},
			CallsPerStep: 1, Kernel: "flux_calc_kernel"},
		{Loop: &trace.Loop{Name: "reset_field_cell", Eligible: true, FlopsPerIt: 0,
			Reads:  []trace.Access{rd(d1, 0, 0), rd(e1, 0, 0)},
			Writes: []trace.Write{wr(d0), wr(e0)},
		}, Bounds: inner, CallsPerStep: 1, Kernel: "reset_field_kernel"},
		{Loop: &trace.Loop{Name: "reset_field_node", Eligible: true, FlopsPerIt: 0,
			Reads:  []trace.Access{rd(xv1, 0, 0), rd(yv1, 0, 0)},
			Writes: []trace.Write{wr(xv0), wr(yv0)},
		}, Bounds: nodes, CallsPerStep: 1, Kernel: "reset_field_kernel"},
	}
}
