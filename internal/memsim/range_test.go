package memsim

import (
	"fmt"
	"math"
	"testing"

	"cloversim/internal/machine"
)

var allKinds = []AccessKind{AccessLoad, AccessRFO, AccessClaimI2M, AccessClaimL2,
	AccessWriteNT, AccessWriteNTReverted, AccessWriteStreamed}

// diffSpecs are the machine models the differential tests sweep: every
// preset (4- to 20-way levels, including the non-power-of-two 11- and
// 15-way L3 slices and non-power-of-two set counts rounded down) plus
// an ICX variant with the adjacent-line prefetcher on, which exercises
// the buddy fetch.
func diffSpecs() []*machine.Spec {
	adj := machine.ICX8360Y()
	adj.Name = "icx+adj"
	adj.PF.AdjacentEnabled = true
	return append(machine.AllPresets(), adj)
}

// xorshift64* PRNG, deterministic pattern generator for the tests.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// event says what one trace step does besides a plain access run.
type event uint8

const (
	evAccess event = iota
	evFlush
	evInvalidate
)

// pattern is one step of a random trace: a (start, n, kind) run, or a
// Flush or Invalidate.
type pattern struct {
	ev    event
	start int64
	n     int64
	kind  AccessKind
}

// randomTrace draws runs with lengths spanning partial sets, full sets
// and multi-set wraps over an address span that stresses both conflict
// misses and reuse, interleaved with Flush and Invalidate events and
// way-0 holes. A hole fills one set of a random level right after a
// Flush — the last of its ways lines lands in way 0 — and then claims
// that line away, leaving way 0 empty with a fresh stamp. The victim
// rule must then let the empty way 0 compete by that stamp rather than
// fill it first.
func randomTrace(spec *machine.Spec, seed uint64, batches int) []pattern {
	r := &rng{s: seed | 1}
	geoms := [3]machine.CacheGeom{spec.L1, spec.L2, spec.L3Slice()}
	var out []pattern
	for len(out) < batches {
		switch x := r.next() % 64; {
		case x == 0:
			out = append(out, pattern{ev: evFlush})
		case x == 1:
			out = append(out, pattern{ev: evInvalidate})
		case x <= 4:
			g := geoms[r.next()%3]
			stride := int64(newRefLevel(g).sets)
			base := int64(r.next() % (1 << 15))
			out = append(out, pattern{ev: evFlush})
			for w := int64(0); w < int64(g.Ways); w++ {
				out = append(out, pattern{start: base + w*stride, n: 1, kind: AccessLoad})
			}
			claim := AccessClaimI2M
			if r.next()%2 == 0 {
				claim = AccessClaimL2
			}
			out = append(out, pattern{start: base + int64(g.Ways-1)*stride, n: 1, kind: claim})
		default:
			out = append(out, pattern{
				start: int64(r.next() % (1 << 15)),
				n:     int64(r.next()%200) + 1,
				kind:  allKinds[r.next()%uint64(len(allKinds))],
			})
		}
	}
	return out
}

// step applies one trace pattern to a Hierarchy through run.
func step(h *Hierarchy, p pattern, run func(*Hierarchy, pattern)) {
	switch p.ev {
	case evFlush:
		h.Flush()
	case evInvalidate:
		h.Invalidate()
	default:
		run(h, p)
	}
}

// stepRef applies one trace pattern to the oracle, line by line.
func stepRef(h *refHierarchy, p pattern) {
	switch p.ev {
	case evFlush:
		h.flush(true)
	case evInvalidate:
		h.flush(false)
	default:
		for line := p.start; line < p.start+p.n; line++ {
			h.op(line, p.kind)
		}
	}
}

func byRange(h *Hierarchy, p pattern) { h.AccessRange(p.start, p.n, p.kind) }

// checkAgainstOracle replays a trace on a fresh Hierarchy (through run)
// and on the oracle side by side. Counts must agree after every step,
// and the dirty census and full semantic state (tags, dirty bits, LRU
// stamps, clocks, prefetcher slots) at the end, before and after a
// final Flush. setup, when non-nil, adjusts both fresh hierarchies.
func checkAgainstOracle(t *testing.T, spec *machine.Spec, pfOn bool, trace []pattern,
	run func(*Hierarchy, pattern), setup func(*Hierarchy, *refHierarchy)) {
	t.Helper()
	h := New(spec)
	h.SetPrefetch(pfOn)
	ref := newRef(spec)
	ref.setPrefetch(spec, pfOn)
	if setup != nil {
		setup(h, ref)
	}
	for i, p := range trace {
		step(h, p, run)
		stepRef(ref, p)
		if got, want := h.Counts(), ref.c; got != want {
			t.Fatalf("%s pf=%t: counts diverge at step %d (%+v)\ngot:    %+v\noracle: %+v",
				spec.Name, pfOn, i, p, got, want)
		}
	}
	if got, want := h.DirtyLines(), ref.dirtyLines(); got != want {
		t.Fatalf("%s pf=%t: %d dirty lines, oracle %d", spec.Name, pfOn, got, want)
	}
	if d := diffState(hierarchyState(h), ref.state()); d != "" {
		t.Fatalf("%s pf=%t: state diverges: %s", spec.Name, pfOn, d)
	}
	h.Flush()
	ref.flush(true)
	if got, want := h.Counts(), ref.c; got != want {
		t.Fatalf("%s pf=%t: post-flush counts diverge\ngot:    %+v\noracle: %+v", spec.Name, pfOn, got, want)
	}
	if d := diffState(hierarchyState(h), ref.state()); d != "" {
		t.Fatalf("%s pf=%t: post-flush state diverges: %s", spec.Name, pfOn, d)
	}
}

// TestAccessRangeDifferential: AccessRange must match the oracle bit
// for bit across every preset, random access patterns with flushes and
// way-0 holes, prefetch on and off, and every access kind.
func TestAccessRangeDifferential(t *testing.T) {
	for _, spec := range diffSpecs() {
		for _, pfOn := range []bool{true, false} {
			for seed := uint64(1); seed <= 8; seed++ {
				trace := randomTrace(spec, seed*0x9e3779b97f4a7c15, 300)
				checkAgainstOracle(t, spec, pfOn, trace, byRange, nil)
			}
		}
	}
}

// TestAccessRangePerKind isolates each kind on a long sequential run and
// a short wrap-around run — the two shapes traffic generators emit.
func TestAccessRangePerKind(t *testing.T) {
	spec := machine.ICX8360Y()
	for _, kind := range allKinds {
		for _, pfOn := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/pf=%t", kind, pfOn), func(t *testing.T) {
				trace := []pattern{
					{start: 100, n: 4096, kind: kind},  // long stream
					{start: 100, n: 4096, kind: kind},  // full reuse
					{start: 4000, n: 300, kind: kind},  // overlap
					{start: 1 << 20, n: 1, kind: kind}, // singleton far away
					{start: 0, n: 1 << 16, kind: kind}, // spills every level
				}
				checkAgainstOracle(t, spec, pfOn, trace, byRange, nil)
			})
		}
	}
}

// TestAccessRangeMixedWithPerLine: interleaving batched and per-line
// calls on the same hierarchy behaves as one continuous trace, so
// callers may mix the APIs freely.
func TestAccessRangeMixedWithPerLine(t *testing.T) {
	spec := machine.ICX8360Y()
	methods := map[AccessKind]func(*Hierarchy, int64){
		AccessLoad:            (*Hierarchy).Load,
		AccessRFO:             (*Hierarchy).RFO,
		AccessClaimI2M:        (*Hierarchy).ClaimI2M,
		AccessClaimL2:         (*Hierarchy).ClaimL2,
		AccessWriteNT:         (*Hierarchy).WriteNT,
		AccessWriteNTReverted: (*Hierarchy).WriteNTReverted,
		AccessWriteStreamed:   (*Hierarchy).WriteStreamed,
	}
	checkAgainstOracle(t, spec, true, randomTrace(spec, 0xf00d, 200), func(h *Hierarchy, p pattern) {
		if p.n%2 == 0 {
			h.AccessRange(p.start, p.n, p.kind)
			return
		}
		for line := p.start; line < p.start+p.n; line++ {
			methods[p.kind](h, line)
		}
	}, nil)
}

// TestAccessRangeEmptyAndNegative: n <= 0 must be a no-op.
func TestAccessRangeEmptyAndNegative(t *testing.T) {
	h := New(machine.ICX8360Y())
	for _, kind := range allKinds {
		h.AccessRange(42, 0, kind)
		h.AccessRange(42, -3, kind)
	}
	if c := h.Counts(); c != (Counts{}) {
		t.Fatalf("empty ranges produced traffic: %+v", c)
	}
}

// TestAccessRangeLineLimit: ways hold 32-bit keys, so lines past the
// simulated range must panic rather than alias onto resident lines.
func TestAccessRangeLineLimit(t *testing.T) {
	h := New(machine.ICX8360Y())
	h.AccessRange(h.lineLimit-8, 8, AccessLoad) // the last lines are fine
	for _, r := range [][2]int64{{-1, 1}, {h.lineLimit - 8, 9}, {h.lineLimit, 1}, {0, math.MaxInt64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AccessRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			h.AccessRange(r[0], r[1], AccessLoad)
		}()
	}
}

// TestClockWrapMatchesOracle starts every level's uint32 LRU clock just
// short of wrapping, so the trace crosses the wrap on every level. Once
// a clock wraps, fresh stamps are smaller than old ones; the simulator
// must then still pick exactly the oracle's victims, which rules out
// any shortcut that assumes stamps grow.
func TestClockWrapMatchesOracle(t *testing.T) {
	for _, spec := range []*machine.Spec{machine.ICX8360Y(), machine.CLX8280()} {
		for _, start := range []uint32{math.MaxUint32 - 500, math.MaxUint32 - 3000} {
			trace := randomTrace(spec, uint64(start)^0x7a11, 400)
			// Keep the clocks from being reset before they wrap.
			var noFlush []pattern
			for _, p := range trace {
				if p.ev == evAccess {
					noFlush = append(noFlush, p)
				}
			}
			checkAgainstOracle(t, spec, true, noFlush, byRange, func(h *Hierarchy, ref *refHierarchy) {
				for _, l := range [...]*level{h.l1, h.l2, h.l3} {
					l.clock = start
				}
				for _, l := range ref.levels() {
					l.clock = start
				}
			})
			h := New(spec)
			for _, l := range [...]*level{h.l1, h.l2, h.l3} {
				l.clock = start
			}
			for _, p := range noFlush {
				byRange(h, p)
			}
			if h.l1.clock >= start || h.l2.clock >= start {
				t.Fatalf("%s: trace did not wrap the L1 and L2 clocks (start %d)", spec.Name, start)
			}
		}
	}
}

// FuzzAccessRange fuzzes the oracle differential over arbitrary
// (seed, batches, pf) triples; the seed also picks the machine. The
// seed corpus covers each access kind, both prefetch states, and
// degenerate lengths.
func FuzzAccessRange(f *testing.F) {
	f.Add(uint64(1), uint8(4), true)
	f.Add(uint64(2), uint8(1), false)
	f.Add(uint64(0x5eed), uint8(16), true)
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(32), false)
	f.Add(uint64(7), uint8(0), true)
	for i, k := range allKinds {
		f.Add(uint64(k)<<8|uint64(i), uint8(8), i%2 == 0)
	}
	specs := diffSpecs()
	f.Fuzz(func(t *testing.T, seed uint64, batches uint8, pfOn bool) {
		spec := specs[seed%uint64(len(specs))]
		checkAgainstOracle(t, spec, pfOn, randomTrace(spec, seed, int(batches%64)+1), byRange, nil)
	})
}
