package cloverleaf

import (
	"fmt"
	"math"

	"cloversim/internal/decomp"
	"cloversim/internal/mpi"
)

// Rank couples a chunk with its communicator and neighbor topology. A
// serial run is a world of one rank: its chunk covers the whole mesh
// and has no neighbors.
type Rank struct {
	Chunk *Chunk
	Comm  *mpi.Comm
	Nbr   Neighbors
	// dt of the previous step, for the rise limiter.
	dtOld float64
	// simTime is the accumulated simulated time.
	simTime float64
	cfg     Config
}

// Time returns the accumulated simulated time.
func (r *Rank) Time() float64 { return r.simTime }

// NewRank builds comm's chunk of cfg's mesh, decomposed over the
// world's ranks as CloverLeaf does.
func NewRank(cfg Config, comm *mpi.Comm) *Rank {
	s := decomp.Decompose(comm.Size(), cfg.GridX, cfg.GridY)[comm.Rank()]
	cx, cy := decomp.Factorize(comm.Size(), cfg.GridX, cfg.GridY)
	l, r, b, t := decomp.Neighbors(s, cx, cy)
	return &Rank{
		Chunk: NewChunk(cfg, s.XMin, s.XMax, s.YMin, s.YMax),
		Comm:  comm,
		Nbr:   Neighbors{l, r, b, t},
		dtOld: cfg.DtInit,
		cfg:   cfg,
	}
}

// halo updates the fields' halos to the given depth.
func (r *Rank) halo(fields []HaloField, depth int) error {
	return r.Chunk.UpdateHalo(r.Comm, r.Nbr, fields, depth)
}

// Step advances one full hydro cycle and returns the timestep used.
// The structure follows hydro.f90: timestep -> PdV(predict) -> accelerate
// -> PdV(correct) -> flux_calc -> advection (direction-alternating
// sweeps) -> reset_field.
func (r *Rank) Step(step int) (float64, error) {
	c := r.Chunk

	// --- timestep ---
	c.IdealGas(false)
	if err := r.halo([]HaloField{
		{c.Pressure, KindCell}, {c.Energy0, KindCell}, {c.Density0, KindCell},
		{c.XVel0, KindNodeX}, {c.YVel0, KindNodeY},
	}, 2); err != nil {
		return 0, err
	}
	c.CalcViscosity()
	if err := r.halo([]HaloField{{c.Viscosity, KindCell}}, 1); err != nil {
		return 0, err
	}
	dt := math.Min(c.CalcDt(), math.Min(r.dtOld*r.cfg.DtRise, r.cfg.DtMax))
	dt = r.Comm.AllreduceScalar(dt, mpi.OpMin)
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
	if err := r.halo([]HaloField{{c.Pressure, KindCell}}, 1); err != nil {
		return 0, err
	}
	c.Accelerate(dt)
	if err := r.halo([]HaloField{{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY}}, 1); err != nil {
		return 0, err
	}
	c.PdV(false, dt)

	// --- advection phase ---
	c.FluxCalc(dt)
	if err := r.halo([]HaloField{
		{c.VolFluxX, KindFluxX}, {c.VolFluxY, KindFluxY},
		{c.Density1, KindCell}, {c.Energy1, KindCell},
	}, 2); err != nil {
		return 0, err
	}

	// The exchange after the first cell sweep refreshes xvel1 and yvel1
	// too: the first momentum sweep reads them two nodes into the halo
	// (am06, am10), and the exchange after accelerate is one deep.
	xFirst := step%2 == 1 // alternate sweep direction per step
	if xFirst {
		c.AdvecCellX(1)
		if err := r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, {c.MassFluxX, KindFluxX},
			{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY},
		}, 2); err != nil {
			return 0, err
		}
		c.AdvecMomX(c.XVel1, 1)
		c.AdvecMomX(c.YVel1, 1)
		c.AdvecCellY(2)
		if err := r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, {c.MassFluxY, KindFluxY},
			{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY},
		}, 2); err != nil {
			return 0, err
		}
		c.AdvecMomY(c.XVel1, 4)
		c.AdvecMomY(c.YVel1, 4)
	} else {
		c.AdvecCellY(1)
		if err := r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, {c.MassFluxY, KindFluxY},
			{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY},
		}, 2); err != nil {
			return 0, err
		}
		c.AdvecMomY(c.XVel1, 2)
		c.AdvecMomY(c.YVel1, 2)
		c.AdvecCellX(2)
		if err := r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, {c.MassFluxX, KindFluxX},
			{c.XVel1, KindNodeX}, {c.YVel1, KindNodeY},
		}, 2); err != nil {
			return 0, err
		}
		c.AdvecMomX(c.XVel1, 3)
		c.AdvecMomX(c.YVel1, 3)
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
	v := r.Comm.Allreduce([]float64{s.Volume, s.Mass, s.InternalEnergy, s.KineticEnergy, s.Pressure}, mpi.OpSum)
	return Summary{Volume: v[0], Mass: v[1], InternalEnergy: v[2], KineticEnergy: v[3], Pressure: v[4]}
}

// Run runs cfg on a world of n in-process ranks and returns the global
// summary. n = 1 is the serial run. A rank count that leaves a chunk
// narrower or shorter than the halo is an error: its neighbours'
// exchanges would send halo cells it does not own.
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
	mpi.NewWorld(n).Run(func(comm *mpi.Comm) {
		s, err := NewRank(cfg, comm).Run()
		if comm.Rank() == 0 {
			summary, firstErr = s, err
		}
	})
	return summary, firstErr
}
