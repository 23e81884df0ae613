package memsim

import (
	"fmt"
	"math"
	"testing"

	"cloversim/internal/machine"
)

// The suites below compare AccessRange, and the per-line API, with the
// oracle on tiny hierarchies: a few hundred lines sweep every level
// through fill, conflict and steady state, with direct-mapped,
// single-set and skewed-associativity corners no preset has. Their run
// shapes (regular runs, self-evicting runs, mixed residency, dirty
// sets, a clock about to wrap) are the boundary cases of the line-run
// path. TestAnalyticFallbackReasons and FuzzAnalyticRange keep names
// from a closed-form range tier that no longer exists: their subtests
// and committed fuzz corpus are tracked by name.

// tinySpec builds a machine spec whose hierarchy has exactly the given
// per-level sets x ways (sets must be powers of two, or setsOf rounds
// them down and the test would lie about its geometry).
func tinySpec(l1s, l1w, l2s, l2w, l3s, l3w int) *machine.Spec {
	s := machine.ICX8360Y()
	s.Name = fmt.Sprintf("tiny-%dx%d-%dx%d-%dx%d", l1s, l1w, l2s, l2w, l3s, l3w)
	s.L1 = machine.CacheGeom{SizeBytes: l1s * l1w * 64, Ways: l1w, LineBytes: 64}
	s.L2 = machine.CacheGeom{SizeBytes: l2s * l2w * 64, Ways: l2w, LineBytes: 64}
	s.L3 = machine.CacheGeom{SizeBytes: l3s * l3w * 64 * s.CoresPerSocket, Ways: l3w, LineBytes: 64}
	s.L3SliceWays = l3w
	return s
}

// byLine replays a run through the per-line public API.
func byLine(h *Hierarchy, p pattern) {
	methods := [...]func(*Hierarchy, int64){
		AccessLoad:            (*Hierarchy).Load,
		AccessRFO:             (*Hierarchy).RFO,
		AccessClaimI2M:        (*Hierarchy).ClaimI2M,
		AccessClaimL2:         (*Hierarchy).ClaimL2,
		AccessWriteNT:         (*Hierarchy).WriteNT,
		AccessWriteNTReverted: (*Hierarchy).WriteNTReverted,
		AccessWriteStreamed:   (*Hierarchy).WriteStreamed,
	}
	for line := p.start; line < p.start+p.n; line++ {
		methods[p.kind](h, line)
	}
}

// checkBothWays checks a trace against the oracle through AccessRange
// and through the per-line API, then ends it with a load sweep over
// probe lines, whose hit/miss pattern depends on every resident line.
func checkBothWays(t *testing.T, spec *machine.Spec, pfOn bool, trace []pattern, probe int64,
	setup func(*Hierarchy, *refHierarchy)) {
	t.Helper()
	trace = append(trace[:len(trace):len(trace)], pattern{start: 0, n: probe, kind: AccessLoad})
	checkAgainstOracle(t, spec, pfOn, trace, byRange, setup)
	checkAgainstOracle(t, spec, pfOn, trace, byLine, setup)
}

// TestTinyGeometryDifferential sweeps randomized tiny geometries x all
// seven access kinds x the boundary run lengths {1, ways-1, ways,
// sets x ways, > cache} per level, each run preceded by a random
// prelude that leaves mixed clean/dirty residency, and compares each
// trace with the oracle.
func TestTinyGeometryDifferential(t *testing.T) {
	r := &rng{s: 0xA11A}
	for g := 0; g < 6; g++ {
		l1s, l1w := 1<<(r.next()%3), int(r.next()%4)+1
		l2s, l2w := 1<<(r.next()%3+1), int(r.next()%6)+1
		l3s, l3w := 1<<(r.next()%4+1), int(r.next()%8)+1
		spec := tinySpec(l1s, l1w, l2s, l2w, l3s, l3w)
		cache := int64(l1s*l1w + l2s*l2w + l3s*l3w)
		lens := []int64{1, int64(l1w) - 1, int64(l1w), int64(l1s * l1w),
			int64(l2s * l2w), int64(l3s * l3w), cache, 2*cache + 7}
		span := int64(256)
		for _, pfOn := range []bool{true, false} {
			for _, kind := range allKinds {
				for _, n := range lens {
					if n <= 0 {
						continue
					}
					trace := make([]pattern, 0, 18)
					for i := 0; i < 16; i++ {
						trace = append(trace, pattern{
							start: int64(r.next() % uint64(span)),
							n:     int64(r.next()%24) + 1,
							kind:  allKinds[r.next()%uint64(len(allKinds))],
						})
					}
					// One run in dirtied territory, one far away on clean
					// sets.
					trace = append(trace,
						pattern{start: int64(r.next() % uint64(span)), n: n, kind: kind},
						pattern{start: 4 * span, n: n, kind: kind})
					checkBothWays(t, spec, pfOn, trace, 2*span, nil)
				}
			}
		}
	}
}

// TestAnalyticFallbackReasons compares named run shapes on one tiny
// hierarchy with the oracle: regular runs, and the irregular ones
// (prefetching, short runs, mixed residency, dirty private sets, runs
// that evict their own lines from L1 or L2).
func TestAnalyticFallbackReasons(t *testing.T) {
	// L1 2 sets x 2 ways, L2 4x2, L3 4x4: 28 lines in all.
	spec := tinySpec(2, 2, 4, 2, 4, 4)
	cases := []struct {
		name  string
		pfOn  bool
		setup []pattern
		run   pattern
	}{
		{name: "load-prefetch-on", pfOn: true,
			run: pattern{start: 0, n: 64, kind: AccessLoad}},
		{name: "auto-short-run",
			run: pattern{start: 0, n: 8, kind: AccessLoad}},
		{name: "mixed-residency",
			setup: []pattern{{start: 0, n: 64, kind: AccessLoad}},
			run:   pattern{start: 32, n: 64, kind: AccessLoad}},
		{name: "dirty-private-set",
			setup: []pattern{{start: 0, n: 1, kind: AccessRFO}},
			run:   pattern{start: 64, n: 64, kind: AccessLoad}},
		{name: "rfo-l1-self-evict",
			run: pattern{start: 0, n: 5, kind: AccessRFO}},
		{name: "claiml2-l2-self-evict",
			run: pattern{start: 0, n: 9, kind: AccessClaimL2}},
		{name: "load-regular",
			run: pattern{start: 0, n: 64, kind: AccessLoad}},
		{name: "load-auto-long",
			run: pattern{start: 0, n: 28, kind: AccessLoad}},
		{name: "rfo-regular",
			run: pattern{start: 0, n: 4, kind: AccessRFO}},
		{name: "ntreverted-regular",
			run: pattern{start: 0, n: 4, kind: AccessWriteNTReverted}},
		{name: "claimi2m-regular",
			run: pattern{start: 0, n: 64, kind: AccessClaimI2M}},
		{name: "claimi2m-l3-resident-ok",
			setup: []pattern{{start: 0, n: 64, kind: AccessClaimI2M}},
			run:   pattern{start: 48, n: 32, kind: AccessClaimI2M}},
		{name: "claiml2-regular",
			run: pattern{start: 0, n: 8, kind: AccessClaimL2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkBothWays(t, spec, tc.pfOn, append(tc.setup, tc.run), 128, nil)
		})
	}
}

// TestTinyL1ClockWrapMidRun: a long run that wraps the uint32 LRU
// clock of a tiny L1 mid-run must still match the oracle exactly.
func TestTinyL1ClockWrapMidRun(t *testing.T) {
	spec := tinySpec(2, 2, 4, 2, 4, 4)
	h := New(spec)
	h.l1.clock = math.MaxUint32 - 10
	h.AccessRange(0, 64, AccessLoad)
	if h.l1.clock >= math.MaxUint32-10 {
		t.Fatalf("run did not wrap the L1 clock (now %d)", h.l1.clock)
	}
	checkBothWays(t, spec, false, []pattern{{start: 0, n: 64, kind: AccessLoad}}, 128,
		func(h *Hierarchy, ref *refHierarchy) {
			h.l1.clock = math.MaxUint32 - 10
			ref.l1.clock = math.MaxUint32 - 10
		})
}

// fuzzGeoms are the hierarchies FuzzAnalyticRange rotates through: tiny
// enough that every batch sweeps whole levels, shaped to hit
// direct-mapped, single-set and skewed-associativity corners.
var fuzzGeoms = [4][6]int{
	{2, 2, 4, 2, 4, 4},
	{1, 3, 2, 4, 8, 2},
	{4, 1, 4, 6, 2, 8},
	{2, 4, 8, 1, 16, 3},
}

// tinyTrace draws batches biased toward run-shape boundaries: long runs
// over several cache capacities, ways+-1 lengths, aliasing wraps through
// a small span, and kind switches mid-stream.
func tinyTrace(seed uint64, batches int, l1w, cache int64) []pattern {
	r := &rng{s: seed | 1}
	out := make([]pattern, batches)
	for i := range out {
		p := pattern{kind: allKinds[r.next()%uint64(len(allKinds))]}
		switch r.next() % 4 {
		case 0: // long run, usually on fresh sets
			p.start = int64(r.next() % (1 << 12))
			p.n = cache + int64(r.next()%uint64(2*cache))
		case 1: // boundary lengths around the associativity
			p.start = int64(r.next() % 64)
			p.n = l1w + int64(r.next()%5) - 2
		case 2: // aliasing wraps inside one small span
			p.start = int64(r.next() % 32)
			p.n = int64(r.next()%uint64(2*cache)) + 1
		default: // short scattered churn
			p.start = int64(r.next() % (1 << 12))
			p.n = int64(r.next()%24) + 1
		}
		if p.n <= 0 {
			p.n = 1
		}
		out[i] = p
	}
	return out
}

// FuzzAnalyticRange fuzzes the comparison with the oracle, through
// AccessRange and through the per-line API, over tiny-geometry traces. The committed
// corpus under testdata/fuzz seeds aliasing wraps, direct-mapped levels,
// kind switches and run lengths at the associativity boundary.
func FuzzAnalyticRange(f *testing.F) {
	f.Add(uint64(1), uint8(8), false)
	f.Add(uint64(0x5eed), uint8(24), true)
	f.Add(uint64(0xA11A), uint8(40), false)
	for i := range fuzzGeoms {
		f.Add(uint64(i), uint8(16), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, batches uint8, pfOn bool) {
		g := fuzzGeoms[seed%uint64(len(fuzzGeoms))]
		spec := tinySpec(g[0], g[1], g[2], g[3], g[4], g[5])
		cache := int64(g[0]*g[1] + g[2]*g[3] + g[4]*g[5])
		checkBothWays(t, spec, pfOn, tinyTrace(seed, int(batches%48)+1, int64(g[1]), cache), 512, nil)
	})
}
