package cloverleaf

import (
	"fmt"
	"math"

	"cloversim/internal/decomp"
	"cloversim/internal/mpi"
)

// Rank couples a chunk with its communicator and neighbor topology.
// A nil Comm means a serial (single-chunk) run.
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

// NewSerialRank builds a single-chunk solver over the whole mesh.
func NewSerialRank(cfg Config) *Rank {
	return &Rank{
		Chunk: NewChunk(cfg, 1, cfg.GridX, 1, cfg.GridY),
		Nbr:   Neighbors{-1, -1, -1, -1},
		dtOld: cfg.DtInit,
		cfg:   cfg,
	}
}

// NewMPIRank builds the rank's chunk from the decomposition.
func NewMPIRank(cfg Config, comm *mpi.Comm, subs []decomp.Subdomain) *Rank {
	s := subs[comm.Rank()]
	cx, _ := decomp.Factorize(comm.Size(), cfg.GridX, cfg.GridY)
	cy := comm.Size() / cx
	l, r, b, t := decomp.Neighbors(s, cx, cy)
	return &Rank{
		Chunk: NewChunk(cfg, s.XMin, s.XMax, s.YMin, s.YMax),
		Comm:  comm,
		Nbr:   Neighbors{l, r, b, t},
		dtOld: cfg.DtInit,
		cfg:   cfg,
	}
}

// halo runs the appropriate halo update.
func (r *Rank) halo(fields []HaloField, depth int) error {
	if r.Comm == nil || r.Comm.Size() == 1 {
		r.Chunk.UpdateHaloSerial(fields, depth)
		return nil
	}
	return r.Chunk.UpdateHaloMPI(r.Comm, r.Nbr, fields, depth)
}

// allreduceMin reduces the timestep across ranks.
func (r *Rank) allreduceMin(v float64) float64 {
	if r.Comm == nil || r.Comm.Size() == 1 {
		return v
	}
	return r.Comm.AllreduceScalar(v, mpi.OpMin)
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
	dt = r.allreduceMin(dt)
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

	xFirst := step%2 == 1 // alternate sweep direction per step
	if xFirst {
		c.AdvecCellX(1)
		if err := r.halo([]HaloField{
			{c.Density1, KindCell}, {c.Energy1, KindCell}, {c.MassFluxX, KindFluxX},
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

// Run advances the configured number of steps and returns the final
// summary (reduced across ranks when parallel).
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

// GlobalSummary reduces the field summary across ranks.
func (r *Rank) GlobalSummary() Summary {
	r.Chunk.IdealGas(false)
	s := r.Chunk.FieldSummary()
	if r.Comm == nil || r.Comm.Size() == 1 {
		return s
	}
	v := r.Comm.Allreduce([]float64{s.Volume, s.Mass, s.InternalEnergy, s.KineticEnergy, s.Pressure}, mpi.OpSum)
	return Summary{Volume: v[0], Mass: v[1], InternalEnergy: v[2], KineticEnergy: v[3], Pressure: v[4]}
}

// RunSerial is a convenience wrapper: run cfg on one chunk.
func RunSerial(cfg Config) (Summary, error) {
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	return NewSerialRank(cfg).Run()
}

// RunMPI runs cfg over n in-process ranks and returns the global summary
// plus the per-rank modeled MPI times.
func RunMPI(cfg Config, n int) (Summary, []mpi.Times, error) {
	return RunMPIThreaded(cfg, n, 1)
}

// RunMPIThreaded is RunMPI with OpenMP-style kernel threading per rank
// (the hybrid MPI+OpenMP mode of the SPEChpc code).
func RunMPIThreaded(cfg Config, n, threads int) (Summary, []mpi.Times, error) {
	if err := cfg.Validate(); err != nil {
		return Summary{}, nil, err
	}
	if n < 1 {
		return Summary{}, nil, errf("need at least 1 rank, got %d", n)
	}
	subs := decomp.Decompose(n, cfg.GridX, cfg.GridY)
	world := mpi.NewWorld(n, mpi.DefaultTimeModel())
	var summary Summary
	var firstErr error
	comms := world.Run(func(comm *mpi.Comm) {
		rank := NewMPIRank(cfg, comm, subs)
		rank.Chunk.SetThreads(threads)
		s, err := rank.Run()
		if comm.Rank() == 0 {
			summary = s
			firstErr = err
		}
	})
	times := make([]mpi.Times, n)
	for i, cm := range comms {
		times[i] = cm.Times
	}
	return summary, times, firstErr
}
