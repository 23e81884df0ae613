package cloverleaf

import (
	"math"
	"sort"

	"cloversim/internal/decomp"
)

// NodeModel is the modeled execution of one hydro step on the node:
// compute (Roofline) time per rank, modeled MPI time, achieved bandwidth,
// and the per-kernel profile. It feeds the Fig. 2 scaling curve, the
// Listing 2 profile and the Fig. 4 MPI share breakdown.
type NodeModel struct {
	Ranks int
	// StepSeconds is the slowest rank's compute time for one step.
	StepSeconds float64
	// MPIPerStep is the modeled per-rank MPI time of one step.
	MPIPerStep MPITimes
	// TotalStepSeconds includes MPI.
	TotalStepSeconds float64
	// BandwidthBytes is the achieved node memory bandwidth during compute.
	BandwidthBytes float64
	// KernelSeconds is the aggregate (all-rank) CPU time per step per
	// kernel — the Listing 2 profile.
	KernelSeconds map[string]float64
	// Traffic is the underlying per-loop traffic study.
	Traffic *TrafficResult
}

// ModelNode runs the traffic study and applies the bandwidth/Roofline
// time model for the given configuration.
func ModelNode(o TrafficOptions) (*NodeModel, error) {
	tr, err := RunTraffic(o)
	if err != nil {
		return nil, err
	}
	spec := o.Machine
	n := o.Ranks

	// Per-core bandwidth share of the most-contended domain: cores in a
	// saturated domain split its bandwidth evenly; cores in a partially
	// filled domain get their full single-core bandwidth.
	minShare := spec.Mem.CoreBandwidth
	for d := 0; d < spec.NUMADomains(); d++ {
		a := spec.ActiveInDomain(n, d)
		if a == 0 {
			continue
		}
		share := spec.Mem.Bandwidth(a) / float64(a)
		if share < minShare {
			minShare = share
		}
	}

	// Compute time: each loop's slowest-rank time is its per-rank volume
	// over the minimum bandwidth share, floored by in-core throughput.
	peakFlops := spec.FreqHz * spec.FlopsPerCycle
	step := 0.0
	kernels := map[string]float64{}
	// Iterate in sorted loop order: the float sums must be bit-identical
	// across runs for byte-stable sweep output.
	for _, name := range tr.LoopNames() {
		l := tr.Loops[name]
		volRank := l.TotalBytes() / float64(n)
		tMem := volRank / minShare
		tCore := float64(l.FlopsPerIt) * l.Iters / float64(n) / peakFlops
		// Loops with little memory traffic (e.g. reductions) still pay
		// a per-iteration instruction cost of about 1 cycle.
		tCore = math.Max(tCore, l.Iters/float64(n)/spec.FreqHz)
		t := math.Max(tMem, tCore) * l.CallsPerStep
		step += t
		kernels[l.Kernel] += t * float64(n) // aggregate CPU seconds
	}

	// MPI model: halo exchanges per step from the driver schedule, plus
	// synchronization/imbalance time proportional to the subdomain
	// surface-to-volume ratio. The paper's ITAC traces (Fig. 4) put the
	// MPI share at 1-6% of the runtime, split roughly 2/3 Waitall and
	// 1/3 Allreduce; 1D (prime) decompositions with their long thin
	// subdomains sync at least twice as much as their neighbors.
	mpiT := modelMPI(o, spec.MPILatency, spec.MPIBandwidth, spec.AllreduceLatency)
	if n > 1 {
		const syncCoef = 6.0
		sync := syncCoef * surfaceToVolume(o) * step
		mpiT.Waitall += sync * 2 / 3
		mpiT.Allreduce += sync / 3
	}

	m := &NodeModel{
		Ranks:            n,
		StepSeconds:      step,
		MPIPerStep:       mpiT,
		TotalStepSeconds: step + mpiT.Total(),
		KernelSeconds:    kernels,
		Traffic:          tr,
	}
	if m.StepSeconds > 0 {
		m.BandwidthBytes = tr.BytesPerStep() / m.StepSeconds
	}
	return m, nil
}

// MPITimes is modeled time per MPI call category (the Fig. 4 rows).
// Reduce charges the application's occasional field summaries.
type MPITimes struct {
	Isend     float64
	Waitall   float64
	Allreduce float64
	Reduce    float64
}

// Total returns the summed modeled MPI time.
func (t MPITimes) Total() float64 {
	return t.Isend + t.Waitall + t.Allreduce + t.Reduce
}

// haloPhase describes one update_halo call of the hydro cycle.
type haloPhase struct {
	fields int
	depth  int
}

// haloSchedule is the modeled sequence of halo exchanges of one hydro
// step (averaged over the two sweep orders, which are symmetric). It
// follows Rank.Step except after the first cell sweep: Rank.Step also
// refreshes xvel1 and yvel1 there for the first momentum sweep, while
// the model counts three fields. Counting five would move the modeled
// MPI time of every multi-rank cell, a model change.
var haloSchedule = []haloPhase{
	{5, 2}, // timestep: pressure, energy0, density0, xvel0, yvel0
	{1, 1}, // viscosity
	{1, 1}, // pressure after predictor EOS
	{2, 1}, // xvel1, yvel1 after accelerate
	{4, 2}, // vol fluxes + density1/energy1 before advection
	{3, 2}, // after first cell sweep: density1, energy1, mass flux
	{5, 2}, // before second momentum sweep
}

// surfaceToVolume returns the median subdomain's halo-perimeter-to-area
// ratio for the decomposition.
func surfaceToVolume(o TrafficOptions) float64 {
	o.defaults()
	subs := decomp.Decompose(o.Ranks, o.GridX, o.GridY)
	s := subs[len(subs)/2]
	return 2 * float64(s.XSpan()+s.YSpan()) / (float64(s.XSpan()) * float64(s.YSpan()))
}

// modelMPI returns the modeled per-rank MPI time of one step for the
// worst-placed rank (interior: 4 neighbors; 1D decompositions: 2).
func modelMPI(o TrafficOptions, latency, bandwidth, redLatency float64) MPITimes {
	o.defaults()
	subs := decomp.Decompose(o.Ranks, o.GridX, o.GridY)
	cx, _ := decomp.Factorize(o.Ranks, o.GridX, o.GridY)
	cy := o.Ranks / cx

	// Use the median subdomain shape.
	xs := make([]int, len(subs))
	ys := make([]int, len(subs))
	for i, s := range subs {
		xs[i], ys[i] = s.XSpan(), s.YSpan()
	}
	sort.Ints(xs)
	sort.Ints(ys)
	xspan, yspan := xs[len(xs)/2], ys[len(ys)/2]

	var t MPITimes
	if o.Ranks == 1 {
		return t
	}
	hasX := cx > 1
	hasY := cy > 1
	for _, ph := range haloSchedule {
		msgs := 0
		var vol float64
		if hasX {
			msgs += 2 * ph.fields // send+recv pairs both sides counted as Wait latencies
			vol += 2 * float64(ph.depth) * float64(yspan+4) * 8 * float64(ph.fields)
		}
		if hasY {
			msgs += 2 * ph.fields
			vol += 2 * float64(ph.depth) * float64(xspan+4) * 8 * float64(ph.fields)
		}
		t.Isend += float64(msgs) * 0.2e-6
		t.Waitall += float64(msgs)*latency + vol/bandwidth
	}
	stages := math.Ceil(math.Log2(float64(o.Ranks)))
	t.Allreduce = 2 * stages * redLatency // dt reduction
	t.Reduce = 0.1 * stages * redLatency  // occasional field summaries
	return t
}
