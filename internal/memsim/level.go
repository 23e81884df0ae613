package memsim

import (
	"fmt"
	"math/bits"

	"cloversim/internal/machine"
)

// maxWays bounds the associativity a level supports (New documents
// it): every probe scans a set's row, which suits a few dozen ways.
const maxWays = 32

// An entry is one way of a set: the line's key, the bits above the set
// index plus one, in the low 32 bits (key 0 = empty), then the dirty
// bit and the way-0 bit.
const (
	dirtyBit = 1 << 32
	way0Bit  = 1 << 33
)

// setMeta is the per-set bookkeeping beside the entry rows.
type setMeta struct {
	// filt is a presence filter: the OR of bit(key) over (a superset of)
	// the set's resident keys. A clear bit proves a line absent, so most
	// misses skip the row scan. Evictions leave stale bits behind; a
	// false positive rebuilds the filter from the resident keys.
	filt uint64
	// n is the number of entries in the set's row.
	n uint8
}

// level is one set-associative, write-back, LRU cache level. Each set's
// row of ent is its LRU stack (Mattson et al., 1970), bottom first: from
// the LRU way at row[0] up to the most recently used, so a push into a
// set that is not full is an append. Way 0 is always listed, empty or
// not, and the other ways only while they hold a line: an empty way 0
// competes for replacement by the age of its last touch, while any
// other empty way is filled first.
type level struct {
	sets    int
	ways    int
	mask    int64 // sets-1 (sets is a power of two)
	shift   uint  // log2(sets)
	ent     []uint64
	meta    []setMeta
	touched bool // a hit or an install since the last reset
}

// setsOf returns the number of sets a level of geometry g simulates:
// g's, rounded down to a power of two. That keeps indexing cheap and is
// within a few percent of the modeled capacity.
func setsOf(g machine.CacheGeom) int {
	sets := g.Sets()
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return sets
}

// fits reports whether the level has geometry g.
func (l *level) fits(g machine.CacheGeom) bool { return l.sets == setsOf(g) && l.ways == g.Ways }

// resize empties the level and sizes it for g, reusing its arrays when
// they are large enough.
func (l *level) resize(g machine.CacheGeom) {
	if g.Ways > maxWays {
		panic(fmt.Sprintf("memsim: %d-way cache exceeds the %d-way limit", g.Ways, maxWays))
	}
	sets := setsOf(g)
	if cap(l.ent) < sets*g.Ways {
		l.ent = make([]uint64, sets*g.Ways)
	}
	if cap(l.meta) < sets {
		l.meta = make([]setMeta, sets)
	}
	*l = level{
		sets:  sets,
		ways:  g.Ways,
		mask:  int64(sets - 1),
		shift: uint(bits.TrailingZeros(uint(sets))),
		ent:   l.ent[:sets*g.Ways],
		meta:  l.meta[:sets],
	}
	clear(l.meta) // the counts of another geometry's rows
	l.reset()
}

// maxLine is the exclusive bound on the lines a level can hold: keys
// are 32 bits wide, and 0 marks an empty way.
func (l *level) maxLine() int64 { return (1<<32 - 1) << l.shift }

// key returns the key of line. Masked shift counts let the compiler
// drop its over-wide checks.
func (l *level) key(line int64) uint32 { return uint32(line>>(l.shift&63)) + 1 }

// lineOf inverts key for an entry of set si.
func (l *level) lineOf(k uint32, si int) int64 { return int64(k-1)<<(l.shift&63) | int64(si) }

// bit returns the presence-filter bit of a key: the bits above the set
// index (the set index itself would alias every resident tag of a set
// onto one bit).
func bit(k uint32) uint64 { return 1 << (k & 63) }

// row returns the entries of set si.
func (l *level) row(si int) []uint64 {
	set := si * l.ways
	return l.ent[set : set+int(l.meta[si].n)]
}

// hit probes for a line and, if it is resident, moves its entry to the
// top of its set's stack.
func (l *level) hit(line int64) bool { return l.mayHold(line) && l.find(line) }

// mayHold reports whether the presence filter admits line. It inlines,
// so hot paths test it first and a miss the filter proves costs no call.
func (l *level) mayHold(line int64) bool {
	return l.meta[line&l.mask].filt&bit(l.key(line)) != 0
}

// find is hit past mayHold: one pass down the stack that either finds
// the line or, on a filter false positive, rebuilds the set's filter
// from the resident keys to shed the stale bits. (An empty way 0 adds
// bit 0, a harmless false bit.)
func (l *level) find(line int64) bool {
	si := int(line & l.mask)
	row := l.row(si)
	k := l.key(line)
	var f uint64
	for p := len(row) - 1; p >= 0; p-- {
		x := row[p]
		if uint32(x) == k {
			copy(row[p:], row[p+1:])
			row[len(row)-1] = x
			l.touched = true
			return true
		}
		f |= bit(uint32(x))
	}
	l.meta[si].filt = f
	return false
}

// install pushes a line (dirty or clean) onto its set's stack and, if
// that evicts a dirty line, returns the line and true. While an empty
// way past way 0 remains the stack grows; otherwise its bottom, the LRU
// way, makes room: an empty way 0 takes the line, and a resident line
// is evicted and hands the new one its way.
func (l *level) install(line int64, dirty bool) (evicted int64, evDirty bool) {
	si := int(line & l.mask)
	m := &l.meta[si]
	set := si * l.ways
	row := l.ent[set : set+l.ways : set+l.ways]
	k := l.key(line)
	e := uint64(k)
	if dirty {
		e |= dirtyBit
	}
	if n := int(m.n); n < len(row) {
		row[n] = e
		m.n++
	} else {
		t := row[0]
		if evDirty = t&dirtyBit != 0; evDirty {
			evicted = l.lineOf(uint32(t), si)
		}
		copy(row, row[1:])
		row[len(row)-1] = e | t&way0Bit
	}
	m.filt |= bit(k)
	l.touched = true
	return evicted, evDirty
}

// markDirty marks the top entry of line's set, the line a hit just
// found, dirty.
func (l *level) markDirty(line int64) {
	row := l.row(int(line & l.mask))
	row[len(row)-1] |= dirtyBit
}

// drop pops the top entry of line's set, the line a hit just found (the
// claims move a line's dirty state elsewhere). Way 0 stays listed,
// empty, where it is.
func (l *level) drop(line int64) {
	si := int(line & l.mask)
	row := l.row(si)
	if top := len(row) - 1; row[top]&way0Bit != 0 {
		row[top] = way0Bit
		return
	}
	l.meta[si].n--
}

// reset empties the level and returns how many dirty lines it held.
// Every set is left with one entry, the empty way 0.
func (l *level) reset() (dirty int64) {
	dirty = int64(l.dirtyLines())
	for si := range l.meta {
		l.ent[si*l.ways] = way0Bit
		l.meta[si] = setMeta{n: 1}
	}
	l.touched = false
	return dirty
}

// dirtyLines counts the dirty lines resident in the level.
func (l *level) dirtyLines() int {
	n := 0
	for si := range l.meta {
		for _, e := range l.row(si) {
			if e&dirtyBit != 0 {
				n++
			}
		}
	}
	return n
}
