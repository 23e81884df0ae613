package memsim

import (
	"fmt"
	"math"
	"testing"

	"cloversim/internal/machine"
)

var allKinds = []AccessKind{AccessLoad, AccessRFO, AccessClaimI2M, AccessClaimL2,
	AccessWriteNT, AccessWriteNTReverted, AccessWriteStreamed}

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
// that line away, leaving way 0 empty and the set's most recently used
// way. The replacement rule must then let the empty way 0 compete by
// that age rather than fill it first.
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
// and the dirty census and full semantic state (each set's lines in
// recency order with their dirty bits and which is way 0, the
// prefetcher's slots and cursor) at the end, before and after a final
// Flush.
func checkAgainstOracle(t *testing.T, spec *machine.Spec, pfOn bool, trace []pattern,
	run func(*Hierarchy, pattern)) {
	t.Helper()
	h := New(spec)
	h.SetPrefetch(pfOn)
	ref := newRef(spec)
	ref.pfOn = pfOn
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
// for bit across every preset (4- to 20-way levels, including the
// non-power-of-two 11- and 15-way L3 slices and set counts rounded down
// to a power of two), random access patterns with flushes and way-0
// holes, prefetch on and off, and every access kind.
func TestAccessRangeDifferential(t *testing.T) {
	for _, spec := range machine.AllPresets() {
		for _, pfOn := range []bool{true, false} {
			for seed := uint64(1); seed <= 8; seed++ {
				trace := randomTrace(spec, seed*0x9e3779b97f4a7c15, 300)
				checkAgainstOracle(t, spec, pfOn, trace, byRange)
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
				checkAgainstOracle(t, spec, pfOn, trace, byRange)
			})
		}
	}
}

// TestAccessRangeMixedWithPerLine: interleaving long runs with runs of
// one line on the same hierarchy behaves as one continuous trace, so
// callers may split a run anywhere.
func TestAccessRangeMixedWithPerLine(t *testing.T) {
	spec := machine.ICX8360Y()
	checkAgainstOracle(t, spec, true, randomTrace(spec, 0xf00d, 200), func(h *Hierarchy, p pattern) {
		if p.n%2 == 0 {
			h.AccessRange(p.start, p.n, p.kind)
			return
		}
		for line := p.start; line < p.start+p.n; line++ {
			h.AccessRange(line, 1, p.kind)
		}
	})
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
	specs := machine.AllPresets()
	f.Fuzz(func(t *testing.T, seed uint64, batches uint8, pfOn bool) {
		spec := specs[seed%uint64(len(specs))]
		checkAgainstOracle(t, spec, pfOn, randomTrace(spec, seed, int(batches%64)+1), byRange)
	})
}
