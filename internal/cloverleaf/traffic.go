package cloverleaf

import (
	"fmt"
	"sort"

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

// groupResult is one rank group's simulated loop traffic, pre-scaling.
type groupResult struct {
	loops  []LoopInstance
	counts []memsim.Counts
	scales []float64
	iters  []float64
}

// trafficGroupHook is a test seam: when set, it runs in every
// rank-group simulation once the group's loops are built, letting the
// regression suite inject a panic, or break a loop so that its replay
// panics, without reaching into the trace executor. Production code
// never sets it.
var trafficGroupHook func(firstRank int, loops []LoopInstance)

// simulateGroup simulates the loop traffic of the rank group whose
// first rank owns subdomain s, on that rank's core x.
func simulateGroup(o TrafficOptions, s decomp.Subdomain, x *trace.Executor) groupResult {
	// Simulated chunk: full x extent, truncated y extent.
	t := NewTrafficChunk(1, s.XSpan(), 1, s.YSpan(), o.MaxRows, o.AlignArrays)
	full := NewTrafficChunk(1, s.XSpan(), 1, s.YSpan(), 0, o.AlignArrays)

	loops := t.HotspotLoops(o.OptimizeLoops)
	fullLoops := full.HotspotLoops(o.OptimizeLoops)
	if !o.HotspotOnly {
		loops = append(loops, t.AuxLoops()...)
		fullLoops = append(fullLoops, full.AuxLoops()...)
	}
	if trafficGroupHook != nil {
		trafficGroupHook(s.Rank, loops)
	}

	gr := groupResult{loops: loops}
	for i, li := range loops {
		c := x.Run(li.Loop, li.Bounds)
		scale := float64(fullLoops[i].Bounds.Iterations()) / float64(li.Bounds.Iterations())
		gr.counts = append(gr.counts, c)
		gr.scales = append(gr.scales, scale)
		gr.iters = append(gr.iters, float64(fullLoops[i].Bounds.Iterations()))
	}
	return gr
}

// RunTraffic simulates the memory traffic of one hydro step for the
// given rank count and returns per-loop aggregates. A rank count whose
// decomposition leaves a rank without cells is an error, and so is a
// rank group whose simulation panics (a workload bug, malformed
// bounds): it fails this study, one scenario of a sweep, not the
// process hosting it.
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
	for _, s := range subs {
		if s.XSpan() < 1 || s.YSpan() < 1 {
			return nil, fmt.Errorf("cloverleaf: %d ranks leave rank %d of the %dx%d mesh without cells", o.Ranks, s.Rank, o.GridX, o.GridY)
		}
	}

	// Rank i runs on core i. Rank groups share a subdomain shape and a
	// pressure; their results stay in rank order, so the float sums
	// below are bit-identical across runs and worker counts.
	node := trace.Node{Spec: &spec, Active: o.Ranks, PFOn: !o.PFOff, NTStores: o.NTStores, Seed: o.Seed, Memo: o.Memo}
	groups := node.Groups(func(rank int) [2]int { return [2]int{subs[rank].XSpan(), subs[rank].YSpan()} })
	results := make([]groupResult, len(groups))
	err := node.Each(groups, func(i int, x *trace.Executor) {
		results[i] = simulateGroup(o, subs[groups[i].First], x)
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
	for g, gr := range results {
		w := float64(groups[g].Count)
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
