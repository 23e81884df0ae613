// Package trace turns loop-nest descriptions (arrays, stencil offsets,
// write streams) into exact cache-line-granular access sequences and
// replays them through the memory-hierarchy simulator and the
// write-allocate-evasion store engine.
//
// A Loop corresponds to one of the paper's marked regions (Table I lists
// the 22 hotspot loops); replaying it over a rank's local iteration space
// reproduces the memory traffic LIKWID would report, including layer
// conditions, halo overfetch, partial-cache-line write-allocates and
// SpecI2M behaviour.
package trace

import (
	"fmt"
	"sort"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// Array is a 2D field laid out row-major in the simulated address space.
type Array struct {
	Name string
	Base int64 // byte address of element (JLo, KLo)
	// JLo..JHi and KLo..KHi are the allocated index bounds (inclusive),
	// including halo columns/rows.
	JLo, JHi, KLo, KHi int
	ElemBytes          int // 8 for float64
}

// RowElems returns the padded row length in elements.
func (a *Array) RowElems() int { return a.JHi - a.JLo + 1 }

// SizeBytes returns the allocation size in bytes.
func (a *Array) SizeBytes() int64 {
	return int64(a.RowElems()) * int64(a.KHi-a.KLo+1) * int64(a.ElemBytes)
}

// Addr returns the byte address of element (j, k).
func (a *Array) Addr(j, k int) int64 {
	return a.Base + (int64(k-a.KLo)*int64(a.RowElems())+int64(j-a.JLo))*int64(a.ElemBytes)
}

// Contains reports whether (j,k) lies within the allocated bounds.
func (a *Array) Contains(j, k int) bool {
	return j >= a.JLo && j <= a.JHi && k >= a.KLo && k <= a.KHi
}

// Arena allocates arrays in a contiguous simulated address space.
type Arena struct {
	next  int64
	align int64
	skew  int64 // extra per-array offset to break 64-byte alignment
}

// NewArena returns an allocator starting at a non-zero base. If aligned
// is false, every allocation is skewed by 8 bytes off the 64-byte
// boundary (modelling the unaligned arrays of the unpatched benchmark).
func NewArena(aligned bool) *Arena {
	a := &Arena{next: 1 << 20, align: 64}
	if !aligned {
		a.skew = 8
	}
	return a
}

// Alloc creates an array covering [jlo,jhi] x [klo,khi].
func (ar *Arena) Alloc(name string, jlo, jhi, klo, khi int) *Array {
	a := &Array{Name: name, JLo: jlo, JHi: jhi, KLo: klo, KHi: khi, ElemBytes: 8}
	base := (ar.next + ar.align - 1) / ar.align * ar.align
	base += ar.skew
	a.Base = base
	ar.next = base + a.SizeBytes() + 2*ar.align // guard gap between arrays
	return a
}

// Access is one read reference with constant stencil offsets.
type Access struct {
	A      *Array
	DJ, DK int
}

// Write is one write stream.
type Write struct {
	A      *Array
	DJ, DK int
	// Update marks read-modify-write streams (the element is loaded
	// before being stored, so no write-allocate is ever needed).
	Update bool
	// NT requests non-temporal stores for this stream (applied only when
	// the executor's NT mode is on and the stream qualifies).
	NT bool
}

// Loop is a rectangular 2D loop nest with stencil reads and write streams.
type Loop struct {
	Name   string
	Reads  []Access
	Writes []Write
	// FlopsPerIt is the floating-point work per inner iteration.
	FlopsPerIt int
	// Eligible marks the loop's stores as recognizable by the SpecI2M
	// heuristics (the paper found ac01/ac05 and the branchy ac02/ac06 are
	// not, Sec. V-B).
	Eligible bool
	// Ranges: the iteration space is j = JLo..JHi, k = KLo..KHi
	// (inclusive), set per execution via Bounds.
}

// Bounds is a concrete iteration space for one loop execution.
type Bounds struct {
	JLo, JHi, KLo, KHi int
}

// Iterations returns the number of inner iterations.
func (b Bounds) Iterations() int64 {
	return int64(b.JHi-b.JLo+1) * int64(b.KHi-b.KLo+1)
}

// Class derives the kernel class for the machine-calibration curves.
func (l *Loop) Class() machine.KernelClass {
	if len(l.Reads) == 0 {
		return machine.ClassPureStore
	}
	if len(l.Reads) <= 1 && len(l.Writes) == 1 {
		return machine.ClassCopy
	}
	return machine.ClassStencil
}

// readGroup is a coalesced per-(array,row-offset) read range.
type readGroup struct {
	a            *Array
	dk           int
	minDJ, maxDJ int
}

// groups coalesces reads by (array, DK): accesses to the same array row
// differ only in DJ and touch one contiguous line range per row.
func (l *Loop) groups() []readGroup {
	m := map[[2]interface{}]*readGroup{}
	var order [][2]interface{}
	for _, r := range l.Reads {
		key := [2]interface{}{r.A, r.DK}
		g, ok := m[key]
		if !ok {
			g = &readGroup{a: r.A, dk: r.DK, minDJ: r.DJ, maxDJ: r.DJ}
			m[key] = g
			order = append(order, key)
			continue
		}
		if r.DJ < g.minDJ {
			g.minDJ = r.DJ
		}
		if r.DJ > g.maxDJ {
			g.maxDJ = r.DJ
		}
	}
	out := make([]readGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *m[k])
	}
	// Deterministic order: lower rows first (matches sweep direction).
	sort.SliceStable(out, func(i, j int) bool { return out[i].dk < out[j].dk })
	return out
}

// CountLCF returns the analytic "elements read per iteration with all
// layer conditions fulfilled": one leading element per distinct array.
func (l *Loop) CountLCF() int {
	seen := map[*Array]bool{}
	for _, r := range l.Reads {
		seen[r.A] = true
	}
	return len(seen)
}

// CountLCB returns the analytic maximum elements read per iteration with
// broken layer conditions: one per distinct (array, row offset).
func (l *Loop) CountLCB() int {
	seen := map[[2]interface{}]bool{}
	for _, r := range l.Reads {
		seen[[2]interface{}{r.A, r.DK}] = true
	}
	return len(seen)
}

// CountWrites returns (writes, updates) per iteration.
func (l *Loop) CountWrites() (wr, upd int) {
	for _, w := range l.Writes {
		wr++
		if w.Update {
			upd++
		}
	}
	return
}

// Validate checks the loop definition.
func (l *Loop) Validate() error {
	if len(l.Writes) == 0 && len(l.Reads) == 0 {
		return fmt.Errorf("trace: loop %s has no accesses", l.Name)
	}
	for _, w := range l.Writes {
		if w.A == nil {
			return fmt.Errorf("trace: loop %s has nil write array", l.Name)
		}
	}
	for _, r := range l.Reads {
		if r.A == nil {
			return fmt.Errorf("trace: loop %s has nil read array", l.Name)
		}
	}
	return nil
}

// Executor replays loops for one simulated core. It holds no cache
// hierarchy: every loop starts from a pristine one and the executor
// keeps only what a loop leaves for the next, the counters and the
// prefetch slot cursor.
type Executor struct {
	// NTStores globally enables the per-stream NT flags (the NT_STORE_DIR
	// build knob of the paper's patched CloverLeaf).
	NTStores bool
	// Env describes the run conditions shared by all loops, prefetch
	// state included.
	Env Env

	spec   *machine.Spec
	e      *core.StoreEngine
	memo   *Memo
	key    keyer
	c      memsim.Counts // the traffic of every loop run so far
	cursor int           // the prefetch slot cursor the next loop starts at
}

// Env captures the machine-state part of the store-engine context.
type Env struct {
	Pressure      float64
	NodeFraction  float64
	ActiveSockets int
	PFOn          bool
}

// NewExecutor builds a simulated core for the machine that shares loop
// replays through memo, the campaign's memo; nil gives the executor a
// memo of its own.
func NewExecutor(spec *machine.Spec, memo *Memo) *Executor {
	if memo == nil {
		memo = NewMemo()
	}
	return &Executor{spec: spec, e: core.NewStoreEngine(nil, spec), Env: Env{PFOn: true}, memo: memo}
}

// Seed reseeds the store engine's deterministic PRNG.
func (x *Executor) Seed(s uint64) { x.e.Seed(s) }

// Counts returns the traffic of every loop run so far: the executor is
// the counter source of a LIKWID-style marker.
func (x *Executor) Counts() memsim.Counts { return x.c }

// Run replays one loop over the bounds and returns the traffic delta.
//
// The hierarchy is flushed after the loop (write-backs counted in the
// delta): in the real application every array is far larger than the
// cache, so nothing survives from one loop to the next even though the
// simulation may use a truncated y extent. Within the loop the caches
// work normally, so layer conditions are fully modeled.
//
// Every loop goes through the memo. A dry pass replays it into a
// hashing backend: the store engine draws its dice, and the key is the
// SHA-256 of the Shape of the pristine hierarchy the loop starts from
// (the machine's caches, the prefetch state and the executor's slot
// cursor) followed by every (kind, start, n) operation memsim would
// receive. A hit adds the stored delta and cursor without simulating.
// A miss rewinds the engine to before the dry pass and replays the loop
// into a hierarchy borrowed from memsim's pool for that replay alone.
// Either way the engine and the returned delta end bit-identical. A Run
// that panics leaves the executor as it was before the call.
func (x *Executor) Run(l *Loop, b Bounds) memsim.Counts {
	cp := x.e.Checkpoint()
	ok := false
	defer func() {
		if !ok {
			x.e.Rewind(cp)
		}
	}()
	v, _ := x.memo.do(x.dryRun(l, b), func() memoValue {
		x.e.Rewind(cp)
		return x.replay(l, b)
	})
	x.c = x.c.Add(v.delta)
	x.cursor = int(v.cursor)
	ok = true
	return v.delta
}

// replay simulates the loop in a borrowed pristine hierarchy and
// returns what the loop and a Flush did to it.
func (x *Executor) replay(l *Loop, b Bounds) memoValue {
	h := memsim.Borrow(x.spec)
	defer memsim.Return(h)
	h.SetPrefetch(x.Env.PFOn)
	h.SetPrefetchCursor(x.cursor)
	x.runBody(l, b, h)
	h.Flush()
	return memoValue{delta: h.Counts(), cursor: uint8(h.Shape().PFCursor)}
}

// dryRun replays the loop into the executor's keyer in place of a
// hierarchy and returns the loop's memo key.
func (x *Executor) dryRun(l *Loop, b Bounds) memoKey {
	s := memsim.ShapeOf(x.spec, x.Env.PFOn)
	s.PFCursor = x.cursor
	x.key.reset(s)
	x.runBody(l, b, &x.key)
	return x.key.sum()
}

// runBody replays the loop's access pattern into be, which it makes
// the store engine's backend for the loop only: between loops the
// engine holds no hierarchy, so a returned one is the pool's alone.
func (x *Executor) runBody(l *Loop, b Bounds, be core.Backend) {
	x.e.SetBackend(be)
	defer x.e.SetBackend(nil)
	groups := l.groups()

	// Which write streams actually use NT stores: at most one
	// non-update stream per loop (the compiler's alignment constraint,
	// Sec. V-B), and only when NT mode is on.
	nt := make([]bool, len(l.Writes))
	if x.NTStores {
		for i, w := range l.Writes {
			if w.NT && !w.Update {
				nt[i] = true
				break
			}
		}
	}
	x.e.ConfigureStreams(len(l.Writes), nt)
	x.e.SetContext(core.Context{
		Pressure:      x.Env.Pressure,
		NodeFraction:  x.Env.NodeFraction,
		ActiveSockets: x.Env.ActiveSockets,
		Class:         l.Class(),
		StoreStreams:  len(l.Writes),
		Eligible:      l.Eligible,
		PFOn:          x.Env.PFOn,
	})

	elem := int64(8)
	for k := b.KLo; k <= b.KHi; k++ {
		for _, g := range groups {
			row := k + g.dk
			lo := g.a.Addr(b.JLo+g.minDJ, row)
			hi := g.a.Addr(b.JHi+g.maxDJ, row) + elem - 1
			// Each row is one sequential line run: replay it on the
			// batched memsim fast path.
			be.AccessRange(lo>>6, hi>>6-lo>>6+1, memsim.AccessLoad)
		}
		for i, w := range l.Writes {
			row := k + w.DK
			addr := w.A.Addr(b.JLo+w.DJ, row)
			n := int64(b.JHi-b.JLo+1) * elem
			if w.Update {
				// Read-modify-write: the element was already loaded via
				// the Reads list (update streams must appear there too),
				// so the RFO hits in cache and only dirties the line —
				// no write-allocate traffic, one write-back per line.
				lo := addr
				hi := addr + n - 1
				be.AccessRange(lo>>6, hi>>6-lo>>6+1, memsim.AccessRFO)
				continue
			}
			x.e.StoreRange(i, addr, n)
		}
	}
	x.e.CloseAll()
}
