package memsim

import (
	"fmt"
	"math"
	"math/bits"

	"cloversim/internal/machine"
)

// maxWays bounds the associativity a level supports: per-set way masks
// are uint32.
const maxWays = 32

// setMeta is the per-set bookkeeping beside the way arrays.
type setMeta struct {
	// filt is a presence filter: the OR of bit(tag) over (a superset of)
	// the set's resident tags. A clear bit proves a line absent, so most
	// misses skip the tag scan. Evictions leave stale bits behind; a
	// false positive rebuilds the filter from the resident tags.
	filt uint64
	// free has bit w set iff way w is empty, so an install into a set
	// that is not full (every set after a Flush) needs no way scan.
	free uint32
	// dirty has bit w set iff way w holds a dirty line.
	dirty uint32
	// qclock and qpos drive the set's victim queue, its row of the
	// level's order array: the set's ways sorted by stamp as of clock
	// qclock, with qpos entries consumed. An entry is still valid iff its
	// way's stamp is at most qclock: stamps only grow while the clock has
	// not wrapped, so a re-stamped way fails the check, and every other
	// way kept its place. The first valid entry is therefore the LRU way.
	qclock uint32
	qpos   uint8
	qnext  uint8 // order row entry qpos, kept here to save a dependent load
}

// level is one set-associative, write-back, LRU cache level. Each way
// is one word: the LRU stamp in the high half and the line's key, the
// bits above the set index plus one, in the low half (key 0 = empty),
// so the stamp an install checks shares a host cache line with the tag
// it replaces.
type level struct {
	sets  int
	ways  int
	mask  int64  // sets-1 (sets is a power of two)
	shift uint   // log2(sets)
	all   uint32 // one bit per way
	word  []uint64
	meta  []setMeta
	order []uint8
	clock uint32
	// wrapped records that the clock has wrapped since the last reset;
	// stamps then no longer grow, so the victim queues are bypassed.
	wrapped bool
	// pred, predWB and predPF are the ways of the most recent demand,
	// write-back and prefetch-candidate hits: search-order hints, never
	// semantic state. A sequential stream lands on the same way across
	// consecutive sets, and the three streams would thrash one slot.
	pred, predWB, predPF int
}

func newLevel(g machine.CacheGeom) *level {
	if g.Ways > maxWays {
		panic(fmt.Sprintf("memsim: %d-way cache exceeds the %d-way limit", g.Ways, maxWays))
	}
	sets := g.Sets()
	// Round down to a power of two; keeps indexing cheap and is within
	// a few percent of the modeled capacity.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	l := &level{
		sets:  sets,
		ways:  g.Ways,
		mask:  int64(sets - 1),
		shift: uint(bits.TrailingZeros(uint(sets))),
		all:   1<<g.Ways - 1,
		word:  make([]uint64, sets*g.Ways),
		meta:  make([]setMeta, sets),
		order: make([]uint8, sets*g.Ways),
	}
	l.reset()
	return l
}

// maxLine is the exclusive bound on the lines a level can hold: keys
// are 32 bits wide, and 0 marks an empty way.
func (l *level) maxLine() int64 { return (1<<32 - 1) << l.shift }

// key returns the low half of a way word holding line. Masked shift
// counts let the compiler drop its over-wide checks.
func (l *level) key(line int64) uint32 { return uint32(line>>(l.shift&63)) + 1 }

// lineOf inverts key for a way of set si.
func (l *level) lineOf(k uint32, si int) int64 { return int64(k-1)<<(l.shift&63) | int64(si) }

// bit returns the presence-filter bit of a key: the bits above the set
// index (the set index itself would alias every resident tag of a set
// onto one bit).
func bit(k uint32) uint64 { return 1 << (k & 63) }

// tick advances the LRU clock and stamps way word i with it.
func (l *level) tick(i int) {
	l.clock++
	if l.clock == 0 {
		l.wrapped = true
	}
	l.word[i] = uint64(l.clock)<<32 | l.word[i]&math.MaxUint32
}

// lookup probes for a line. On a hit it refreshes the way's LRU stamp
// and returns the way; on a miss it returns -1. pred is the predicted
// way, updated on scan hits.
func (l *level) lookup(line int64, pred *int) int {
	if !l.mayHold(line) {
		return -1
	}
	return l.find(line, pred)
}

// mayHold reports whether the presence filter admits line. It inlines,
// so hot paths test it first and a miss the filter proves costs no call.
func (l *level) mayHold(line int64) bool {
	return l.meta[line&l.mask].filt&bit(l.key(line)) != 0
}

// find is lookup past mayHold: a predicted-way compare, then one pass
// over the ways that either finds the line or, on a filter false
// positive, rebuilds the set's filter from the resident keys to shed
// the stale bits. (An empty way adds bit 0, a harmless false bit.)
func (l *level) find(line int64, pred *int) int {
	si := int(line & l.mask)
	set := si * l.ways
	words := l.word[set : set+l.ways : set+l.ways]
	k := l.key(line)
	if p := *pred; p < len(words) && uint32(words[p]) == k {
		l.tick(set + p)
		return p
	}
	var f uint64
	for w, x := range words {
		if uint32(x) == k {
			*pred = w
			l.tick(set + w)
			return w
		}
		f |= bit(uint32(x))
	}
	l.meta[si].filt = f
	return -1
}

// install places a line (dirty or clean) into the victim way of its set
// and returns whether the evicted line was dirty and, if so, the line.
// The victim is the first empty way past way 0, else the LRU way; an
// empty way 0 competes by its stale stamp.
func (l *level) install(line int64, dirty bool) (evicted int64, evDirty bool) {
	si := int(line & l.mask)
	m := &l.meta[si]
	var w int
	if f := m.free &^ 1; f != 0 {
		w = bits.TrailingZeros32(f)
	} else {
		w = l.victim(si, m)
	}
	i := si*l.ways + w
	b := uint32(1) << (w & 31)
	evicted, evDirty = -1, m.dirty&b != 0
	if evDirty {
		evicted = l.lineOf(uint32(l.word[i]), si)
	}
	k := l.key(line)
	l.clock++
	if l.clock == 0 {
		l.wrapped = true
	}
	l.word[i] = uint64(l.clock)<<32 | uint64(k)
	m.free &^= b
	if dirty {
		m.dirty |= b
	} else {
		m.dirty &^= b
	}
	m.filt |= bit(k)
	return evicted, evDirty
}

// victim returns the LRU way of a set with no empty way past way 0.
func (l *level) victim(si int, m *setMeta) int {
	set := si * l.ways
	words := l.word[set : set+l.ways : set+l.ways]
	if l.wrapped {
		return lruWay(words)
	}
	order := l.order[set : set+l.ways : set+l.ways]
	for p := int(m.qpos); p < len(order); p++ {
		w := int(m.qnext)
		if p+1 < len(order) {
			m.qnext = order[p+1]
		}
		if w < len(words) && uint32(words[w]>>32) <= m.qclock {
			m.qpos = uint8(p + 1)
			return w
		}
	}
	// Every way was re-stamped since the last sort, mostly by installs in
	// queue order, so the old order is nearly sorted: insertion sort
	// repairs it in about one pass.
	for i := 1; i < len(order); i++ {
		w := order[i]
		s := words[w] >> 32
		j := i
		for ; j > 0 && words[order[j-1]]>>32 > s; j-- {
			order[j] = order[j-1]
		}
		order[j] = w
	}
	m.qclock, m.qpos, m.qnext = l.clock, 1, order[1%len(order)]
	return int(order[0])
}

// lruWay returns the way with the smallest stamp, the lowest way on a
// tie: the exact rule, for sets whose stamps may have wrapped.
func lruWay(words []uint64) int {
	best := 0
	for w := 1; w < len(words); w++ {
		if words[w]>>32 < words[best]>>32 {
			best = w
		}
	}
	return best
}

// setDirty marks a resident way of line's set dirty.
func (l *level) setDirty(line int64, w int) {
	l.meta[line&l.mask].dirty |= 1 << (w & 31)
}

// drop empties a resident way of line's set, keeping its stamp (the
// claims move a line's dirty state elsewhere).
func (l *level) drop(line int64, w int) {
	si := int(line & l.mask)
	l.word[si*l.ways+w] &^= math.MaxUint32
	m := &l.meta[si]
	b := uint32(1) << (w & 31)
	m.free |= b
	m.dirty &^= b
}

// reset empties the level and returns how many dirty lines it held.
func (l *level) reset() (dirty int64) {
	for si := range l.meta {
		m := &l.meta[si]
		dirty += int64(bits.OnesCount32(m.dirty))
		*m = setMeta{free: l.all, qpos: uint8(l.ways)}
		// A set refilled after a reset ages in way order: ways 1.. fill
		// first, and the empty way 0 keeps the oldest stamp, 0.
		set := si * l.ways
		for w := range l.order[set : set+l.ways] {
			l.order[set+w] = uint8(w)
		}
	}
	clear(l.word)
	l.clock, l.wrapped = 0, false
	return dirty
}

// dirtyLines counts the dirty lines resident in the level.
func (l *level) dirtyLines() int {
	n := 0
	for i := range l.meta {
		n += bits.OnesCount32(l.meta[i].dirty)
	}
	return n
}
