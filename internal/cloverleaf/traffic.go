package cloverleaf

import (
	"context"
	"fmt"
	"sort"

	"cloversim/internal/decomp"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// TrafficOptions configures a traffic study (the simulation analogue of a
// likwid-perfctr-instrumented CloverLeaf run).
type TrafficOptions struct {
	Machine *machine.Spec
	Ranks   int
	// GridX, GridY: global mesh (defaults to the paper's 15360^2).
	GridX, GridY int
	// MaxRows truncates each rank's y extent for speed (traffic per
	// iteration is row-invariant once layer conditions are warm);
	// 0 = full extent.
	MaxRows int
	// Build knobs of the paper's patched CloverLeaf (config.mk).
	AlignArrays   bool
	NTStores      bool
	OptimizeLoops bool
	// SpecI2MOff disables the write-allocate-evasion feature (MSR bit).
	SpecI2MOff bool
	// PFOff disables the hardware prefetchers (likwid-features).
	PFOff bool
	// HotspotOnly skips the auxiliary (non-Table-I) kernels.
	HotspotOnly bool
	Seed        uint64
	// Memo is the campaign's loop memo, shared by every rank group; nil
	// gives the study a memo of its own. It changes no result.
	Memo *trace.Memo
}

func (o *TrafficOptions) defaults() {
	if o.GridX == 0 {
		o.GridX = 15360
	}
	if o.GridY == 0 {
		o.GridY = 15360
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
}

// LoopTraffic aggregates one loop's simulated traffic across all ranks.
type LoopTraffic struct {
	Name         string
	Kernel       string
	Hotspot      bool
	CallsPerStep float64
	FlopsPerIt   int
	// Counts is the node-aggregate traffic of ONE call of the loop
	// (scaled from the truncated simulation to the full y extent).
	Counts memsim.Counts
	// scaled volumes as floats (scaling produces non-integers)
	ReadBytes, WriteBytes, ItoMBytes float64
	// Iters is the node-aggregate iteration count of one call.
	Iters float64
}

// TotalBytes returns read+write volume of one call.
func (l *LoopTraffic) TotalBytes() float64 { return l.ReadBytes + l.WriteBytes }

// BytesPerIt returns the code balance normalized the way the paper does:
// volume per call divided by the global inner cell count.
func (l *LoopTraffic) BytesPerIt(innerCells float64) float64 {
	return l.TotalBytes() / innerCells
}

// ReadPerIt returns read bytes per inner grid cell.
func (l *LoopTraffic) ReadPerIt(innerCells float64) float64 {
	return l.ReadBytes / innerCells
}

// WritePerIt returns write bytes per inner grid cell.
func (l *LoopTraffic) WritePerIt(innerCells float64) float64 {
	return l.WriteBytes / innerCells
}

// TrafficResult is the outcome of one traffic study.
type TrafficResult struct {
	Ranks      int
	InnerCells float64
	Loops      map[string]*LoopTraffic
	// RankShapes records how many distinct subdomain/pressure groups
	// were simulated (diagnostic).
	RankShapes int
}

// Loop returns a loop's aggregate (nil if absent).
func (r *TrafficResult) Loop(name string) *LoopTraffic { return r.Loops[name] }

// LoopNames returns the loop names in sorted order. Aggregations over
// Loops must iterate in this order: float addition is not associative,
// so map-order sums would differ in the low bits between runs and break
// byte-stable campaign output.
func (r *TrafficResult) LoopNames() []string {
	names := make([]string, 0, len(r.Loops))
	for name := range r.Loops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BytesPerStep returns the node-aggregate memory volume of one hydro step.
func (r *TrafficResult) BytesPerStep() float64 {
	var v float64
	for _, name := range r.LoopNames() {
		l := r.Loops[name]
		v += l.TotalBytes() * l.CallsPerStep
	}
	return v
}

// rankGroup identifies ranks with identical simulation conditions.
type rankGroup struct {
	xspan, yspan int
	pressure     float64
	count        int
	firstRank    int
}

// groupResult is one rank group's simulated loop traffic, pre-scaling.
type groupResult struct {
	weights float64
	loops   []LoopInstance
	counts  []memsim.Counts
	scales  []float64
	iters   []float64
}

// trafficGroupHook is a test seam: when set, it runs in every
// rank-group simulation once the group's loops are built, letting the
// regression suite inject a panic, or break a loop so that its replay
// panics, without reaching into the trace executor. Production code
// never sets it.
var trafficGroupHook func(g *rankGroup, loops []LoopInstance)

// simulateGroup simulates one rank group's loop traffic. A panic
// anywhere in the group's simulation — a workload bug, malformed
// bounds — is recovered into an error so it fails this traffic study
// (one scenario in a sweep), not the whole process hosting it (a
// sweepd worker serving many campaigns).
func simulateGroup(o TrafficOptions, spec *machine.Spec, env trace.Env, g *rankGroup) (gr groupResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloverleaf: rank group at rank %d (%dx%d) panicked: %v", g.firstRank, g.xspan, g.yspan, r)
		}
	}()
	// Simulated chunk: full x extent, truncated y extent.
	t := NewTrafficChunk(1, g.xspan, 1, g.yspan, o.MaxRows, o.AlignArrays)
	full := NewTrafficChunk(1, g.xspan, 1, g.yspan, 0, o.AlignArrays)

	loops := t.HotspotLoops(o.OptimizeLoops)
	fullLoops := full.HotspotLoops(o.OptimizeLoops)
	if !o.HotspotOnly {
		loops = append(loops, t.AuxLoops()...)
		fullLoops = append(fullLoops, full.AuxLoops()...)
	}
	if trafficGroupHook != nil {
		trafficGroupHook(g, loops)
	}

	x := trace.NewExecutor(spec, o.Memo)
	x.NTStores = o.NTStores
	e := env
	e.Pressure = g.pressure
	x.Env = e
	x.Seed(o.Seed ^ uint64(g.firstRank+1)*0x9e3779b97f4a7c15)

	gr = groupResult{weights: float64(g.count)}
	gr.loops = loops
	for i, li := range loops {
		c := x.Run(li.Loop, li.Bounds)
		scale := float64(fullLoops[i].Bounds.Iterations()) / float64(li.Bounds.Iterations())
		gr.counts = append(gr.counts, c)
		gr.scales = append(gr.scales, scale)
		gr.iters = append(gr.iters, float64(fullLoops[i].Bounds.Iterations()))
	}
	return gr, nil
}

// RunTraffic simulates the memory traffic of one hydro step for the
// given rank count and returns per-loop aggregates. A rank count whose
// decomposition leaves a rank without cells is an error.
func RunTraffic(o TrafficOptions) (*TrafficResult, error) {
	o.defaults()
	if o.Machine == nil {
		return nil, fmt.Errorf("cloverleaf: traffic study needs a machine spec")
	}
	if o.Ranks < 1 || o.Ranks > o.Machine.Cores() {
		return nil, fmt.Errorf("cloverleaf: rank count %d outside 1..%d", o.Ranks, o.Machine.Cores())
	}

	spec := *o.Machine // shallow copy so the MSR knob does not leak
	spec.I2M.Enabled = spec.I2M.Enabled && !o.SpecI2MOff
	if o.Memo == nil {
		o.Memo = trace.NewMemo()
	}

	// Rank groups in order of their first rank: the decomposition lists
	// subdomains by rank.
	var groups []*rankGroup
	index := map[[3]int]int{}
	for _, s := range decomp.Decompose(o.Ranks, o.GridX, o.GridY) {
		if s.XSpan() < 1 || s.YSpan() < 1 {
			return nil, fmt.Errorf("cloverleaf: %d ranks leave rank %d of the %dx%d mesh without cells", o.Ranks, s.Rank, o.GridX, o.GridY)
		}
		p := spec.PressureAt(s.Rank, o.Ranks)
		key := [3]int{s.XSpan(), s.YSpan(), int(p * 1e6)}
		if i, ok := index[key]; ok {
			groups[i].count++
			continue
		}
		index[key] = len(groups)
		groups = append(groups, &rankGroup{xspan: s.XSpan(), yspan: s.YSpan(), pressure: p, count: 1, firstRank: s.Rank})
	}

	env := trace.Env{
		NodeFraction:  float64(o.Ranks) / float64(spec.Cores()),
		ActiveSockets: spec.ActiveSockets(o.Ranks),
		PFOn:          !o.PFOff,
	}

	// One goroutine per rank group; results stay in rank order, so the
	// float sums below are bit-identical across runs and worker counts,
	// and the first error is the lowest-ranked group's. One cell's
	// bounded physics: cancellation is scenario-granular at the sweep
	// engine.
	results := make([]groupResult, len(groups))
	err := sweep.ForEach(context.Background(), len(groups), len(groups), func(i int) error {
		var err error
		results[i], err = simulateGroup(o, &spec, env, groups[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &TrafficResult{
		Ranks:      o.Ranks,
		InnerCells: float64(o.GridX) * float64(o.GridY),
		Loops:      map[string]*LoopTraffic{},
		RankShapes: len(groups),
	}
	for _, gr := range results {
		for i, li := range gr.loops {
			lt, ok := res.Loops[li.Loop.Name]
			if !ok {
				lt = &LoopTraffic{
					Name:         li.Loop.Name,
					Kernel:       li.Kernel,
					Hotspot:      li.Hotspot,
					CallsPerStep: li.CallsPerStep,
					FlopsPerIt:   li.Loop.FlopsPerIt,
				}
				res.Loops[li.Loop.Name] = lt
			}
			w := gr.weights
			s := gr.scales[i]
			c := gr.counts[i]
			lt.Counts = lt.Counts.Add(c)
			lt.ReadBytes += w * s * float64(c.ReadBytes())
			lt.WriteBytes += w * s * float64(c.WriteBytes())
			lt.ItoMBytes += w * s * float64(c.ItoMLines*64)
			lt.Iters += w * gr.iters[i]
		}
	}
	return res, nil
}
