package cloverleaf

import (
	"fmt"
	"math"

	"cloversim/internal/decomp"
)

// Rank couples a chunk with its world and neighbor topology. A serial
// run is a world of one rank: its chunk covers the whole mesh and has
// no neighbors.
type Rank struct {
	Chunk *Chunk
	Nbr   Neighbors
	id    int
	w     *world
	// dt of the previous step, for the rise limiter.
	dtOld float64
	// simTime is the accumulated simulated time.
	simTime float64
	cfg     Config
}

// Time returns the accumulated simulated time.
func (r *Rank) Time() float64 { return r.simTime }

// Step advances one full hydro cycle and returns the timestep used.
// The structure follows hydro.f90: timestep -> PdV(predict) -> accelerate
// -> PdV(correct) -> flux_calc -> advection (direction-alternating
// sweeps) -> reset_field.
func (r *Rank) Step(step int) (float64, error) {
	c := r.Chunk

	// --- timestep ---
	c.IdealGas(false)
	r.halo([]HaloField{
		{c.Pressure, KindCell}, {c.Energy0, KindCell}, {c.Density0, KindCell},
		{c.XVel0, KindNodeX}, {c.YVel0, KindNodeY},
	}, 2)
	c.CalcViscosity()
	r.halo([]HaloField{{c.Viscosity, KindCell}}, 1)
	dt := math.Min(c.CalcDt(), math.Min(r.dtOld*r.cfg.DtRise, r.cfg.DtMax))
	dt = r.w.meet(r.id, []float64{dt}, math.Min)[0]
	if dt <= 0 || math.IsNaN(dt) {
		return 0, fmt.Errorf("cloverleaf: step %d produced invalid dt %g", step, dt)
	}
	r.dtOld = dt
	if r.cfg.EndTime > 0 && r.simTime+dt > r.cfg.EndTime {
		dt = r.cfg.EndTime - r.simTime
	}

	// --- Lagrangian phase ---
	c.PdV(true, dt)
	c.IdealGas(true)
	r.halo([]HaloField{{c.Pressure, KindCell}}, 1)
	c.Accelerate(dt)
	r.halo([]HaloField{{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY}}, 1)
	c.PdV(false, dt)

	// --- advection phase ---
	c.FluxCalc(dt)
	r.halo([]HaloField{
		{c.VolFluxX, KindFluxX}, {c.VolFluxY, KindFluxY},
		{c.Density1, KindCell}, {c.Energy1, KindCell},
	}, 2)

	// Advection sweeps x then y on odd steps, y then x on even steps.
	// The exchange after each cell sweep refreshes xvel1 and yvel1 too:
	// the first momentum sweep reads them two nodes into the halo (am06,
	// am10), and the exchange after accelerate is one deep.
	type direction struct {
		cell     func(sweepNumber int)
		mom      func(vel1 *Field, momSweep int)
		massFlux HaloField
		momSweep [2]int // advec_mom's sweep number when this direction goes first, second
	}
	dirs := [2]direction{
		{c.AdvecCellX, c.AdvecMomX, HaloField{c.MassFluxX, KindFluxX}, [2]int{1, 3}},
		{c.AdvecCellY, c.AdvecMomY, HaloField{c.MassFluxY, KindFluxY}, [2]int{2, 4}},
	}
	if step%2 == 0 {
		dirs[0], dirs[1] = dirs[1], dirs[0]
	}
	for i, d := range dirs {
		d.cell(i + 1)
		r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, d.massFlux,
			{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY},
		}, 2)
		d.mom(c.XVel1, d.momSweep[i])
		d.mom(c.YVel1, d.momSweep[i])
	}

	c.ResetField()
	r.simTime += dt
	return dt, nil
}

// Run advances the configured number of steps and returns the summary
// reduced across the world's ranks.
func (r *Rank) Run() (Summary, error) {
	for step := 1; step <= r.cfg.EndStep; step++ {
		if _, err := r.Step(step); err != nil {
			return Summary{}, err
		}
		if r.cfg.EndTime > 0 && r.simTime >= r.cfg.EndTime-1e-15 {
			break
		}
	}
	return r.GlobalSummary(), nil
}

// GlobalSummary reduces the field summary across the world's ranks.
func (r *Rank) GlobalSummary() Summary {
	r.Chunk.IdealGas(false)
	s := r.Chunk.FieldSummary()
	v := r.w.meet(r.id, []float64{s.Volume, s.Mass, s.InternalEnergy, s.KineticEnergy, s.Pressure},
		func(a, b float64) float64 { return a + b })
	return Summary{Volume: v[0], Mass: v[1], InternalEnergy: v[2], KineticEnergy: v[3], Pressure: v[4]}
}

// Run runs cfg on a world of n ranks, one goroutine each, and returns
// the global summary. n = 1 is the serial run. A rank count that leaves
// a chunk narrower or shorter than the halo is an error: its neighbours
// would copy halo cells it does not own.
func Run(cfg Config, n int) (Summary, error) {
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	if n < 1 {
		return Summary{}, errf("need at least 1 rank, got %d", n)
	}
	for _, s := range decomp.Decompose(n, cfg.GridX, cfg.GridY) {
		if s.XSpan() < haloDepth || s.YSpan() < haloDepth {
			return Summary{}, errf("%d ranks cut the %dx%d mesh into chunks narrower than the %d-cell halo (rank %d gets %dx%d cells)",
				n, cfg.GridX, cfg.GridY, haloDepth, s.Rank, s.XSpan(), s.YSpan())
		}
	}
	var summary Summary
	var firstErr error
	newWorld(cfg, n).run(func(r *Rank) {
		s, err := r.Run()
		if r.id == 0 {
			summary, firstErr = s, err
		}
	})
	return summary, firstErr
}
