// Package memsim provides a cache-line-accurate simulation of one core's
// view of the memory hierarchy: private L1 and L2 caches, a per-core L3
// slice, one L2 stream prefetcher, and a memory controller that counts
// read and write cache-line transfers (the CAS_COUNT_RD / CAS_COUNT_WR
// analogue of the paper's LIKWID measurements). The prefetcher follows
// demand-load misses and pulls the 8 lines ahead of an armed stream
// into L3; SetPrefetch switches it on and off, the model of disabling
// the hardware prefetchers.
//
// The hierarchy is write-back, write-allocate with LRU replacement.
// Layer conditions (Sec. II-C), partial-line write-allocates and prefetch
// overfetch are emergent properties of the simulation, not parameters.
//
// Hierarchy implements core.Backend (AccessRange), so the SpecI2M store
// engine of internal/core drives it directly.
//
// There is one simulation path and one entry point: AccessRange replays
// a run of consecutive same-kind accesses (range.go); a single line is
// a run of one, and there are no per-line methods. Each cache set
// (level.go) is one recency list, its ways' LRU stack, beside a
// presence filter that lets most misses skip the list. The differential and fuzz suites in range_test.go
// check it bit-for-bit against the plain per-line oracle in
// oracle_test.go, which orders ways by stamps.
//
// Simulations borrow their hierarchies from a process-wide pool (pool.go)
// and return them when done: a loop replay or a microbenchmark core
// group holds one only while it simulates. At most GOMAXPROCS pooled
// hierarchies exist at once, the most that can simulate in parallel, so
// simulation memory grows with the cores and not with the goroutines
// that simulate: concurrent cells, rank groups, core groups or sweepd
// requests. A borrower past the bound waits for a return rather than
// allocating: hierarchies allocated past it would only live for one
// burst of concurrent simulations, and those bursts are what set the
// process's peak resident memory. A borrower waits on nothing else while
// it holds a hierarchy, so waiting cannot deadlock. The pool holds a
// returned hierarchy only weakly, so the garbage collector takes back
// the hierarchies nobody is using: a process that has finished
// simulating, a sweepd between requests, holds none.
package memsim

import (
	"fmt"

	"cloversim/internal/machine"
)

// Counts is a snapshot of the memory-controller and hierarchy event
// counters. All volumes are in cache lines; multiply by 64 for bytes.
type Counts struct {
	MemReadLines  int64 // lines read from memory (demand + RFO + prefetch)
	MemWriteLines int64 // lines written to memory (write-backs + NT)
	ItoMLines     int64 // SpecI2M claims (TOR_INSERTS_IA_ITOM analogue)
	NTLines       int64 // non-temporal full/partial line writes
	NTReverted    int64 // NT stores reverted to regular write-allocates
	WSLines       int64 // ARM write-streaming direct writes
	PFLines       int64 // memory reads initiated by the prefetcher
	L1Hits        int64
	L2Hits        int64
	L3Hits        int64
	Loads         int64 // demand load accesses
	RFOs          int64 // write-allocate accesses
}

// Sub returns c - o, counter-wise.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines - o.MemReadLines,
		MemWriteLines: c.MemWriteLines - o.MemWriteLines,
		ItoMLines:     c.ItoMLines - o.ItoMLines,
		NTLines:       c.NTLines - o.NTLines,
		NTReverted:    c.NTReverted - o.NTReverted,
		WSLines:       c.WSLines - o.WSLines,
		PFLines:       c.PFLines - o.PFLines,
		L1Hits:        c.L1Hits - o.L1Hits,
		L2Hits:        c.L2Hits - o.L2Hits,
		L3Hits:        c.L3Hits - o.L3Hits,
		Loads:         c.Loads - o.Loads,
		RFOs:          c.RFOs - o.RFOs,
	}
}

// Add returns c + o, counter-wise.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines + o.MemReadLines,
		MemWriteLines: c.MemWriteLines + o.MemWriteLines,
		ItoMLines:     c.ItoMLines + o.ItoMLines,
		NTLines:       c.NTLines + o.NTLines,
		NTReverted:    c.NTReverted + o.NTReverted,
		WSLines:       c.WSLines + o.WSLines,
		PFLines:       c.PFLines + o.PFLines,
		L1Hits:        c.L1Hits + o.L1Hits,
		L2Hits:        c.L2Hits + o.L2Hits,
		L3Hits:        c.L3Hits + o.L3Hits,
		Loads:         c.Loads + o.Loads,
		RFOs:          c.RFOs + o.RFOs,
	}
}

// ReadBytes returns the memory read volume in bytes.
func (c Counts) ReadBytes() int64 { return c.MemReadLines * 64 }

// WriteBytes returns the memory write volume in bytes.
func (c Counts) WriteBytes() int64 { return c.MemWriteLines * 64 }

// TotalBytes returns the total memory data volume in bytes.
func (c Counts) TotalBytes() int64 { return (c.MemReadLines + c.MemWriteLines) * 64 }

// Hierarchy is one core's cache hierarchy plus the memory controller
// counters.
type Hierarchy struct {
	l1, l2, l3 *level
	c          Counts

	pfOn    bool
	pfSlots [pfSlotCount]int64 // last miss line per detected stream
	pfNext  int

	lineLimit int64 // exclusive bound on the lines AccessRange accepts
}

const (
	pfSlotCount = 16
	// pfDistance is how many lines past an armed stream's miss the
	// streamer fetches.
	pfDistance = 8
)

// New creates a hierarchy for the machine spec with the prefetcher on.
// It panics on a cache level of more than 32 ways.
// The hierarchy simulates lines from 0 up to a bound set by its smallest
// cache (ways hold 32-bit keys of the bits above the set index): 2^38
// lines, 16 TiB of addresses, for a 64-set L1.
//
// New builds a hierarchy outside the pool; simulations borrow theirs
// (Borrow).
func New(spec *machine.Spec) *Hierarchy {
	h := &Hierarchy{l1: new(level), l2: new(level), l3: new(level)}
	h.fit(spec)
	return h
}

// fit makes a pristine h the hierarchy New(spec) returns: zero
// counters, the prefetcher on and the slot cursor at 0. A level of
// another geometry is resized in place; one that already has spec's
// geometry is kept as it is.
func (h *Hierarchy) fit(spec *machine.Spec) {
	for i, g := range levelGeoms(spec) {
		if l := h.levels()[i]; !l.fits(g) {
			l.resize(g)
		}
	}
	h.c = Counts{}
	h.pfOn = true
	h.resetPrefetch()
	h.pfNext = 0
	// Leave room for the streamer, which reaches pfDistance lines past
	// the demand line, with two lines to spare.
	h.lineLimit = min(h.l1.maxLine(), h.l2.maxLine(), h.l3.maxLine()) - pfDistance - 2
}

// fits reports whether h has the geometry of spec's hierarchy.
func (h *Hierarchy) fits(spec *machine.Spec) bool {
	for i, g := range levelGeoms(spec) {
		if !h.levels()[i].fits(g) {
			return false
		}
	}
	return true
}

// levels returns the hierarchy's L1, L2 and L3-slice levels.
func (h *Hierarchy) levels() [3]*level { return [...]*level{h.l1, h.l2, h.l3} }

// levelGeoms returns the geometry of spec's L1, L2 and L3 slice.
func levelGeoms(spec *machine.Spec) [3]machine.CacheGeom {
	return [...]machine.CacheGeom{spec.L1, spec.L2, spec.L3Slice()}
}

// SetPrefetch enables or disables the stream prefetcher
// (likwid-features analogue).
func (h *Hierarchy) SetPrefetch(on bool) { h.pfOn = on }

// SetPrefetchCursor moves the prefetch slot cursor, the slot the next
// unarmed miss takes, to c (see Shape). It panics unless 0 <= c < 16.
func (h *Hierarchy) SetPrefetchCursor(c int) {
	if c < 0 || c >= pfSlotCount {
		panic(fmt.Sprintf("memsim: prefetch cursor %d outside [0, %d)", c, pfSlotCount))
	}
	h.pfNext = c
}

// Counts returns a snapshot of all counters.
func (h *Hierarchy) Counts() Counts { return h.c }

// Flush writes back every dirty line and invalidates the hierarchy,
// counting the write-backs. Use at region boundaries when residual dirty
// state matters (small working sets). It empties every cache level and
// prefetch slot but keeps the prefetcher's slot cursor, the slot the next
// unarmed miss takes, as the oracle does: the cursor is part of what a
// pristine hierarchy's response depends on (see Shape).
func (h *Hierarchy) Flush() {
	for _, l := range h.levels() {
		h.c.MemWriteLines += l.reset()
	}
	h.resetPrefetch()
}

// Invalidate drops all cached state without counting write-backs. Like
// Flush, it keeps the prefetcher's slot cursor.
func (h *Hierarchy) Invalidate() {
	for _, l := range h.levels() {
		l.reset()
	}
	h.resetPrefetch()
}

func (h *Hierarchy) resetPrefetch() {
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
}

// Shape is everything besides the access sequence that a pristine
// hierarchy's response depends on: the geometry of each level (L1, L2,
// L3 slice), whether the prefetcher is on and the prefetch slot cursor.
// Two pristine hierarchies of one Shape fed the same AccessRange
// sequence count the same events and end with the same cursor.
type Shape struct {
	Sets, Ways [3]int
	PFOn       bool
	PFCursor   int
}

// Shape returns the hierarchy's current shape.
func (h *Hierarchy) Shape() Shape {
	s := Shape{PFOn: h.pfOn, PFCursor: h.pfNext}
	for i, l := range h.levels() {
		s.Sets[i], s.Ways[i] = l.sets, l.ways
	}
	return s
}

// ShapeOf returns the Shape of the hierarchy New(spec) builds, after
// SetPrefetch(prefetch), without building one: its slot cursor is 0.
func ShapeOf(spec *machine.Spec, prefetch bool) Shape {
	s := Shape{PFOn: prefetch}
	for i, g := range levelGeoms(spec) {
		s.Sets[i], s.Ways[i] = setsOf(g), g.Ways
	}
	return s
}

// pristine reports whether no level has installed or touched a line
// since New, Flush or Invalidate. Every access that changes cache or
// prefetch-slot state hits or installs a line somewhere, so the caches
// and slots of a pristine hierarchy are empty and only its Shape tells
// it apart from another.
func (h *Hierarchy) pristine() bool {
	return !h.l1.touched && !h.l2.touched && !h.l3.touched
}

// DirtyLines counts dirty lines currently cached (for tests).
func (h *Hierarchy) DirtyLines() int {
	return h.l1.dirtyLines() + h.l2.dirtyLines() + h.l3.dirtyLines()
}
