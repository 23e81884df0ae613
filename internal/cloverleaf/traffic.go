package cloverleaf

import (
	"fmt"
	"sort"
	"sync"

	"cloversim/internal/decomp"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
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

// FlopsPerStep returns the node-aggregate flops of one hydro step.
func (r *TrafficResult) FlopsPerStep() float64 {
	var v float64
	for _, name := range r.LoopNames() {
		l := r.Loops[name]
		v += float64(l.FlopsPerIt) * l.Iters * l.CallsPerStep
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
	firstRank int
	weights   float64
	loops     []LoopInstance
	counts    []memsim.Counts
	scales    []float64
	iters     []float64
}

// groupError pairs a group failure with its first rank so RunTraffic
// can report a deterministic first error regardless of scheduler order.
type groupError struct {
	firstRank int
	err       error
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

	gr = groupResult{firstRank: g.firstRank, weights: float64(g.count)}
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
// given rank count and returns per-loop aggregates.
//
//lint:allow ctxflow one cell's bounded physics; cancellation is scenario-granular at the sweep engine (PR 4)
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

	subs := decomp.Decompose(o.Ranks, o.GridX, o.GridY)
	groups := map[[3]int]*rankGroup{}
	for _, s := range subs {
		p := spec.PressureAt(s.Rank, o.Ranks)
		key := [3]int{s.XSpan(), s.YSpan(), int(p * 1e6)}
		g, ok := groups[key]
		if !ok {
			groups[key] = &rankGroup{xspan: s.XSpan(), yspan: s.YSpan(), pressure: p, count: 1, firstRank: s.Rank}
			continue
		}
		g.count++
	}

	env := trace.Env{
		NodeFraction:  float64(o.Ranks) / float64(spec.Cores()),
		ActiveSockets: spec.ActiveSockets(o.Ranks),
		PFOn:          !o.PFOff,
	}

	results := make([]groupResult, 0, len(groups))
	var errs []groupError
	var mu sync.Mutex
	var wg sync.WaitGroup

	for _, g := range groups {
		wg.Add(1)
		go func(g *rankGroup) {
			defer wg.Done()
			gr, err := simulateGroup(o, &spec, env, g)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, groupError{firstRank: g.firstRank, err: err})
				return
			}
			results = append(results, gr)
		}(g)
	}
	wg.Wait()
	if len(errs) > 0 {
		// Deterministic "first" error: lowest first rank, not scheduler
		// order.
		sort.Slice(errs, func(a, b int) bool { return errs[a].firstRank < errs[b].firstRank })
		return nil, errs[0].err
	}

	// Groups finish in scheduler order; accumulate in rank order so the
	// float sums below are bit-identical across runs and worker counts.
	sort.Slice(results, func(a, b int) bool { return results[a].firstRank < results[b].firstRank })

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
