package memsim

import (
	"cmp"
	"fmt"
	"slices"

	"cloversim/internal/machine"
)

// This file holds the reference oracle the differential and fuzz suites
// compare Hierarchy against: the cache physics written as the plainest
// per-line chain — one tag/stamp/dirty array per level, linear scans,
// LRU by stamp, no presence filters or recency lists. It shares no code
// or state with the shipped simulator, so a bug in the simulator's
// bookkeeping shows up as a divergence here. The clock is 64 bits wide,
// so it never wraps.

// refLevel is one set-associative, write-back, LRU cache level.
type refLevel struct {
	sets, ways int
	mask       int64
	tags       []int64 // -1 = empty
	dirty      []bool
	stamp      []uint64
	clock      uint64
}

func newRefLevel(g machine.CacheGeom) *refLevel {
	sets := g.Sets()
	for sets&(sets-1) != 0 {
		sets &= sets - 1 // round down to a power of two, as Hierarchy does
	}
	l := &refLevel{
		sets:  sets,
		ways:  g.Ways,
		mask:  int64(sets - 1),
		tags:  make([]int64, sets*g.Ways),
		dirty: make([]bool, sets*g.Ways),
		stamp: make([]uint64, sets*g.Ways),
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	return l
}

// lookup probes for a line; on hit it refreshes LRU and returns the
// slot, else -1.
func (l *refLevel) lookup(line int64) int {
	set := int(line&l.mask) * l.ways
	for w := 0; w < l.ways; w++ {
		if l.tags[set+w] == line {
			l.clock++
			l.stamp[set+w] = l.clock
			return set + w
		}
	}
	return -1
}

// victim returns the slot to replace in the line's set: the first empty
// way past way 0, else the way with the smallest stamp (lowest way on a
// tie). An empty way 0 therefore competes by its stale stamp.
func (l *refLevel) victim(line int64) int {
	set := int(line&l.mask) * l.ways
	best := set
	bestStamp := l.stamp[set]
	for w := 1; w < l.ways; w++ {
		if l.tags[set+w] == -1 {
			return set + w
		}
		if l.stamp[set+w] < bestStamp {
			bestStamp = l.stamp[set+w]
			best = set + w
		}
	}
	return best
}

// install places a line, returning the evicted line (-1 if the slot was
// empty) and whether it was dirty.
func (l *refLevel) install(line int64, dirty bool) (evicted int64, evDirty bool) {
	slot := l.victim(line)
	evicted, evDirty = l.tags[slot], l.dirty[slot]
	l.tags[slot] = line
	l.dirty[slot] = dirty
	l.clock++
	l.stamp[slot] = l.clock
	return evicted, evDirty
}

// drop empties a slot without touching its stamp (the claims).
func (l *refLevel) drop(slot int) {
	l.tags[slot] = -1
	l.dirty[slot] = false
}

func (l *refLevel) reset(h *refHierarchy, count bool) {
	for i := range l.tags {
		if count && l.tags[i] >= 0 && l.dirty[i] {
			h.c.MemWriteLines++
		}
		l.tags[i] = -1
		l.dirty[i] = false
		l.stamp[i] = 0
	}
	l.clock = 0
}

// refHierarchy is the oracle counterpart of Hierarchy.
type refHierarchy struct {
	l1, l2, l3 *refLevel
	c          Counts

	pfOn    bool
	pfSlots [pfSlotCount]int64
	pfNext  int
	pfDist  int64
}

func newRef(spec *machine.Spec) *refHierarchy {
	h := &refHierarchy{
		l1:     newRefLevel(spec.L1),
		l2:     newRefLevel(spec.L2),
		l3:     newRefLevel(spec.L3Slice()),
		pfOn:   true,
		pfDist: pfDistance,
	}
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
	return h
}

// installThrough pushes a line into l3, l2 and l1, propagating dirty
// evictions down to memory.
func (h *refHierarchy) installThrough(line int64, dirty bool) {
	if ev, d := h.l3.install(line, false); d && ev >= 0 {
		h.c.MemWriteLines++
	}
	h.installL2L1(line, dirty)
}

func (h *refHierarchy) installL2L1(line int64, dirty bool) {
	if ev, d := h.l2.install(line, false); d && ev >= 0 {
		h.writebackToL3(ev)
	}
	h.installToL1(line, dirty)
}

func (h *refHierarchy) installToL1(line int64, dirty bool) {
	if ev, d := h.l1.install(line, dirty); d && ev >= 0 {
		h.writebackToL2(ev)
	}
}

func (h *refHierarchy) writebackToL2(line int64) {
	if slot := h.l2.lookup(line); slot >= 0 {
		h.l2.dirty[slot] = true
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3(ev)
	}
}

func (h *refHierarchy) writebackToL3(line int64) {
	if slot := h.l3.lookup(line); slot >= 0 {
		h.l3.dirty[slot] = true
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

// memFetch reads a line from memory and runs the prefetchers, which only
// follow demand loads.
func (h *refHierarchy) memFetch(line int64, allowPF bool) {
	h.c.MemReadLines++
	if allowPF && h.pfOn {
		h.prefetch(line)
	}
}

// prefetch is the L2 streamer: a miss sequential to a previous miss arms
// a stream and pulls the next pfDist lines into L3.
func (h *refHierarchy) prefetch(line int64) {
	armed := false
	for i := range h.pfSlots {
		if h.pfSlots[i] == line-1 || h.pfSlots[i] == line-2 {
			h.pfSlots[i] = line
			armed = true
			break
		}
	}
	if !armed {
		h.pfSlots[h.pfNext] = line
		h.pfNext = (h.pfNext + 1) % pfSlotCount
		return
	}
	for d := int64(1); d <= h.pfDist; d++ {
		l := line + d
		if h.l3.lookup(l) >= 0 || h.l2.lookup(l) >= 0 || h.l1.lookup(l) >= 0 {
			continue
		}
		h.c.MemReadLines++
		h.c.PFLines++
		if ev, dd := h.l3.install(l, false); dd && ev >= 0 {
			h.c.MemWriteLines++
		}
	}
}

// access is the shared load/RFO path.
func (h *refHierarchy) access(line int64, dirty, allowPF bool) {
	if slot := h.l1.lookup(line); slot >= 0 {
		h.c.L1Hits++
		if dirty {
			h.l1.dirty[slot] = true
		}
		return
	}
	if h.l2.lookup(line) >= 0 {
		h.c.L2Hits++
		h.installToL1(line, dirty)
		return
	}
	if h.l3.lookup(line) >= 0 {
		h.c.L3Hits++
		h.installL2L1(line, dirty)
		return
	}
	h.memFetch(line, allowPF)
	h.installThrough(line, dirty)
}

func (h *refHierarchy) claimI2M(line int64) {
	h.c.ItoMLines++
	if slot := h.l1.lookup(line); slot >= 0 {
		h.l1.drop(slot)
	}
	if slot := h.l2.lookup(line); slot >= 0 {
		h.l2.drop(slot)
	}
	if slot := h.l3.lookup(line); slot >= 0 {
		h.l3.dirty[slot] = true
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

func (h *refHierarchy) claimL2(line int64) {
	h.c.ItoMLines++
	if slot := h.l1.lookup(line); slot >= 0 {
		h.l1.drop(slot)
	}
	if slot := h.l2.lookup(line); slot >= 0 {
		h.l2.dirty[slot] = true
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3(ev)
	}
}

// op performs one per-line access of the given kind.
func (h *refHierarchy) op(line int64, kind AccessKind) {
	switch kind {
	case AccessLoad:
		h.c.Loads++
		h.access(line, false, true)
	case AccessRFO:
		h.c.RFOs++
		h.access(line, true, false)
	case AccessClaimI2M:
		h.claimI2M(line)
	case AccessClaimL2:
		h.claimL2(line)
	case AccessWriteNT:
		h.c.NTLines++
		h.c.MemWriteLines++
	case AccessWriteNTReverted:
		h.c.NTReverted++
		h.c.RFOs++
		h.access(line, true, false)
	case AccessWriteStreamed:
		h.c.WSLines++
		h.c.MemWriteLines++
	}
}

func (h *refHierarchy) levels() [3]*refLevel { return [3]*refLevel{h.l1, h.l2, h.l3} }

func (h *refHierarchy) flush(count bool) {
	for _, l := range h.levels() {
		l.reset(h, count)
	}
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
}

func (h *refHierarchy) dirtyLines() int {
	n := 0
	for _, l := range h.levels() {
		for i := range l.tags {
			if l.tags[i] >= 0 && l.dirty[i] {
				n++
			}
		}
	}
	return n
}

// entry is one way of a set as a later access can observe it.
type entry struct {
	line  int64 // -1 = empty
	dirty bool
	way0  bool
}

// hierState is the semantic state of a hierarchy: for each level and
// set, the ways a victim choice can see, least recently touched first —
// every way holding a line and way 0, which competes by its age even
// when empty — plus the prefetcher's slots and cursor.
type hierState struct {
	sets    [3][][]entry
	pfSlots [pfSlotCount]int64
	pfNext  int
}

func (h *refHierarchy) state() hierState {
	var s hierState
	for i, l := range h.levels() {
		s.sets[i] = make([][]entry, l.sets)
		for si := range s.sets[i] {
			set := si * l.ways
			var ways []int
			for w := range l.ways {
				if w == 0 || l.tags[set+w] >= 0 {
					ways = append(ways, set+w)
				}
			}
			slices.SortFunc(ways, func(a, b int) int { return cmp.Compare(l.stamp[a], l.stamp[b]) })
			for _, slot := range ways {
				s.sets[i][si] = append(s.sets[i][si], entry{l.tags[slot], l.dirty[slot], slot == set})
			}
		}
	}
	s.pfSlots, s.pfNext = h.pfSlots, h.pfNext
	return s
}

// hierarchyState reads the same semantic state out of a Hierarchy.
func hierarchyState(h *Hierarchy) hierState {
	var s hierState
	for i, l := range h.levels() {
		s.sets[i] = make([][]entry, l.sets)
		for si := range s.sets[i] {
			for _, x := range l.row(si) {
				e := entry{line: -1, dirty: x&dirtyBit != 0, way0: x&way0Bit != 0}
				if k := uint32(x); k != 0 {
					e.line = l.lineOf(k, si)
				}
				s.sets[i][si] = append(s.sets[i][si], e)
			}
		}
	}
	s.pfSlots, s.pfNext = h.pfSlots, h.pfNext
	return s
}

// diffState describes the first divergence between two states, or
// returns "" when they are identical.
func diffState(got, want hierState) string {
	names := [3]string{"L1", "L2", "L3"}
	for i := range got.sets {
		for si := range want.sets[i] {
			if g, w := got.sets[i][si], want.sets[i][si]; !slices.Equal(g, w) {
				return fmt.Sprintf("%s set %d: got %+v, want %+v", names[i], si, g, w)
			}
		}
	}
	if got.pfSlots != want.pfSlots || got.pfNext != want.pfNext {
		return fmt.Sprintf("prefetch slots %v/%d != %v/%d", got.pfSlots, got.pfNext, want.pfSlots, want.pfNext)
	}
	return ""
}
