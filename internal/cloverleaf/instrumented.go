package cloverleaf

import (
	"cloversim/internal/counters"
	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// InstrumentedRank couples a real physics rank with a simulated core:
// each hydro step advances the actual solver AND replays the hotspot
// loops' memory traffic through the cache simulator under LIKWID-style
// marker regions. This is the analogue of the paper's patched CloverLeaf
// build with ALL_HOTSPOT_LOOPS=ON — physics results and traffic
// measurements from the same run.
type InstrumentedRank struct {
	*Rank
	Exec   *trace.Executor
	Marker *counters.Marker

	loops []LoopInstance
	spec  *machine.Spec
}

// InstrumentOptions configures the measurement side.
type InstrumentOptions struct {
	Machine *machine.Spec
	// ActiveRanks sets the bandwidth-pressure context (how many cores
	// run concurrently); defaults to 1 (a serial measurement run).
	ActiveRanks int
	// Core is this rank's core index under compact pinning.
	Core int
	// NTStores / OptimizeLoops mirror the config.mk knobs.
	NTStores      bool
	OptimizeLoops bool
	SpecI2MOff    bool
	// MaxRows truncates the traffic replay's y extent (0 = full).
	MaxRows int
	Seed    uint64
}

// NewInstrumentedSerialRank builds an instrumented single-chunk solver.
func NewInstrumentedSerialRank(cfg Config, o InstrumentOptions) *InstrumentedRank {
	r := NewSerialRank(cfg)
	return instrument(r, o)
}

func instrument(r *Rank, o InstrumentOptions) *InstrumentedRank {
	spec := *o.Machine
	spec.I2M.Enabled = spec.I2M.Enabled && !o.SpecI2MOff
	if o.ActiveRanks <= 0 {
		o.ActiveRanks = 1
	}

	tc := NewTrafficChunk(r.Chunk.XMin, r.Chunk.XMax, r.Chunk.YMin, r.Chunk.YMax,
		o.MaxRows, true)
	loops := tc.HotspotLoops(o.OptimizeLoops)

	x := trace.NewExecutor(&spec, nil)
	x.NTStores = o.NTStores
	x.Env = trace.Env{
		Pressure:      spec.PressureAt(o.Core, o.ActiveRanks),
		NodeFraction:  float64(o.ActiveRanks) / float64(spec.Cores()),
		ActiveSockets: spec.ActiveSockets(o.ActiveRanks),
		PFOn:          true,
	}
	if o.Seed == 0 {
		o.Seed = 0x1257
	}
	x.Seed(o.Seed)

	return &InstrumentedRank{
		Rank:   r,
		Exec:   x,
		Marker: counters.NewMarker(x, counters.GroupSPECI2M),
		loops:  loops,
		spec:   &spec,
	}
}

// Step advances physics by one step and replays the corresponding
// traffic: integer-call loops replay every step, half-call loops on the
// step parity that matches their sweep.
func (ir *InstrumentedRank) Step(step int) (float64, error) {
	dt, err := ir.Rank.Step(step)
	if err != nil {
		return dt, err
	}
	xFirst := step%2 == 1
	for _, li := range ir.loops {
		calls := int(li.CallsPerStep)
		if li.CallsPerStep == 0.5 {
			// Sweep-order dependent loops: ac00/ac01 belong to x-first
			// steps, ac04/ac05 to y-first steps.
			isX := li.Loop.Name == "ac00" || li.Loop.Name == "ac01"
			if isX == xFirst {
				calls = 1
			}
		}
		for i := 0; i < calls; i++ {
			if _, err := ir.Exec.RunMarked(ir.Marker, li.Loop, li.Bounds); err != nil {
				return dt, err
			}
		}
	}
	return dt, nil
}

// Run advances the configured number of steps.
func (ir *InstrumentedRank) Run() (Summary, error) {
	for step := 1; step <= ir.cfg.EndStep; step++ {
		if _, err := ir.Step(step); err != nil {
			return Summary{}, err
		}
		if ir.cfg.EndTime > 0 && ir.simTime >= ir.cfg.EndTime-1e-15 {
			break
		}
	}
	return ir.GlobalSummary(), nil
}

// BalanceReport returns measured byte/it per hotspot loop, normalized by
// the inner cell count as the paper does. The y truncation of the replay
// is compensated by scaling with the true/truncated iteration ratio.
func (ir *InstrumentedRank) BalanceReport() map[string]float64 {
	out := map[string]float64{}
	fullTC := NewTrafficChunk(ir.Chunk.XMin, ir.Chunk.XMax, ir.Chunk.YMin, ir.Chunk.YMax, 0, true)
	fullLoops := fullTC.HotspotLoops(false)
	inner := float64(ir.Chunk.XSpan()) * float64(ir.Chunk.YSpan())
	for i, li := range ir.loops {
		r := ir.Marker.Region(li.Loop.Name)
		if r == nil || r.Calls == 0 {
			continue
		}
		scale := float64(fullLoops[i].Bounds.Iterations()) / float64(li.Bounds.Iterations())
		perCall := float64(r.C.TotalBytes()) * scale / float64(r.Calls)
		out[li.Loop.Name] = perCall / inner
	}
	return out
}
