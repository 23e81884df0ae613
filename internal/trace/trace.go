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
//
// An Executor is the one simulated core of the repository: Run replays
// a Loop on it, and Replay runs any other access pattern, such as the
// bench package's store and copy microbenchmarks, on the same path
// (memo lookup, a hierarchy borrowed from memsim's pool, a panic that
// leaves the executor as it was). Each replay returns its own traffic
// delta; the executor keeps no running counters, so callers such as
// the CloverLeaf traffic study sum the deltas they need.
//
// A Node is the simulated compute node the cores run on, and the only
// way to get an Executor: it decides which cores are active under
// compact pinning, gives each core the pressure of its ccNUMA domain,
// the node fraction, the active sockets and its own seed, groups the
// active cores that replay alike, and fans the groups out.
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// ElemBytes is the element size of every array: all fields are
// float64.
const ElemBytes = 8

// Array is a 2D field laid out row-major in the simulated address space.
type Array struct {
	Name string
	Base int64 // byte address of element (JLo, KLo)
	// JLo..JHi and KLo..KHi are the allocated index bounds (inclusive),
	// including halo columns/rows.
	JLo, JHi, KLo, KHi int
}

// RowElems returns the padded row length in elements.
func (a *Array) RowElems() int { return a.JHi - a.JLo + 1 }

// SizeBytes returns the allocation size in bytes.
func (a *Array) SizeBytes() int64 {
	return int64(a.RowElems()) * int64(a.KHi-a.KLo+1) * ElemBytes
}

// Addr returns the byte address of element (j, k).
func (a *Array) Addr(j, k int) int64 {
	return a.Base + (int64(k-a.KLo)*int64(a.RowElems())+int64(j-a.JLo))*ElemBytes
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
	a := &Array{Name: name, JLo: jlo, JHi: jhi, KLo: klo, KHi: khi}
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

// Write is one write stream: it stores element (j, k) of A at
// iteration (j, k).
type Write struct {
	A *Array
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
	out := make([]readGroup, 0, len(l.Reads))
reads:
	for _, r := range l.Reads {
		for i := range out {
			if g := &out[i]; g.a == r.A && g.dk == r.DK {
				g.minDJ = min(g.minDJ, r.DJ)
				g.maxDJ = max(g.maxDJ, r.DJ)
				continue reads
			}
		}
		out = append(out, readGroup{a: r.A, dk: r.DK, minDJ: r.DJ, maxDJ: r.DJ})
	}
	// Deterministic order: lower rows first (matches sweep direction).
	slices.SortStableFunc(out, func(a, b readGroup) int { return cmp.Compare(a.dk, b.dk) })
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
func (l *Loop) CountLCB() int { return len(l.groups()) }

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

// Executor is one simulated core, and the only code that simulates
// one: the CloverLeaf loops, the kernel workloads and the
// microbenchmarks all replay on an Executor, built by Node.Core. It
// holds no cache hierarchy and no counters: every replay starts from a
// pristine hierarchy, returns its own traffic delta, and leaves the
// executor only what the next replay starts from, the store engine's
// state and the prefetch slot cursor.
type Executor struct {
	spec *machine.Spec
	// ctx is the core's run conditions on its node; Context adds what
	// each replay stores.
	ctx      core.Context
	ntStores bool // the node's NTStores
	e        *core.StoreEngine
	memo     *Memo
	key      keyer
	cursor   int // the prefetch slot cursor the next replay starts at
}

// Context returns the store-engine context of a replay on this core:
// the core's run conditions with the kernel class, the number of store
// streams and the SpecI2M eligibility of what it stores.
func (x *Executor) Context(class machine.KernelClass, streams int, eligible bool) core.Context {
	c := x.ctx
	c.Class, c.StoreStreams, c.Eligible = class, streams, eligible
	return c
}

// Run replays one loop over the bounds and returns the traffic delta:
// it is Replay with the loop's body.
func (x *Executor) Run(l *Loop, b Bounds) memsim.Counts {
	return x.Replay(func(_ *core.StoreEngine, be core.Backend) { x.runLoop(l, b, be) })
}

// Replay runs body as one replay of the simulated core and returns the
// traffic delta. body drives the core's store engine e, whose backend
// is be for the call, and may hand be operations of its own (a loop's
// reads, a read-modify-write's RFOs). After body, Replay closes every
// open store line and flushes the hierarchy (write-backs counted in the
// delta): in the real application every array is far larger than the
// cache, so nothing survives from one loop to the next even though the
// simulation may use a truncated y extent. Within the replay the caches
// work normally, so layer conditions are fully modeled. body must be a
// pure function of the engine's state: Replay may run it twice.
//
// With a memo, a dry pass runs body into a hashing backend: the store
// engine draws its dice, and the key is the SHA-256 of the Shape of the
// pristine hierarchy the replay starts from (the machine's caches, the
// prefetch state and the executor's slot cursor) followed by every
// (kind, start, n) operation memsim would receive. A hit returns the
// stored delta and sets the stored cursor without simulating. A miss
// rewinds the engine to before the dry pass and runs body again into a
// hierarchy borrowed from memsim's pool for that replay alone. Either
// way the engine, the cursor and the returned delta end bit-identical. Without a memo, Replay runs
// body once into a borrowed hierarchy. A Replay that panics leaves the
// executor as it was before the call.
func (x *Executor) Replay(body func(e *core.StoreEngine, be core.Backend)) memsim.Counts {
	cp := x.e.Checkpoint()
	ok := false
	defer func() {
		if !ok {
			x.e.Rewind(cp)
		}
	}()
	var v memoValue
	if x.memo == nil {
		v = x.replay(body)
	} else {
		v, _ = x.memo.do(x.dryRun(body), func() memoValue {
			x.e.Rewind(cp)
			return x.replay(body)
		})
	}
	x.cursor = int(v.cursor)
	ok = true
	return v.delta
}

// replay runs body in a borrowed pristine hierarchy and returns what
// body and a Flush did to it.
func (x *Executor) replay(body func(*core.StoreEngine, core.Backend)) memoValue {
	h := memsim.Borrow(x.spec)
	defer memsim.Return(h)
	h.SetPrefetch(x.ctx.PFOn)
	h.SetPrefetchCursor(x.cursor)
	x.drive(h, body)
	h.Flush()
	return memoValue{delta: h.Counts(), cursor: uint8(h.Shape().PFCursor)}
}

// dryRun runs body into the executor's keyer in place of a hierarchy
// and returns the replay's memo key.
func (x *Executor) dryRun(body func(*core.StoreEngine, core.Backend)) memoKey {
	s := memsim.ShapeOf(x.spec, x.ctx.PFOn)
	s.PFCursor = x.cursor
	x.key.reset(s)
	x.drive(&x.key, body)
	return x.key.sum()
}

// drive runs body with be as the store engine's backend, for body
// only: between replays the engine holds no hierarchy, so a returned
// one is the pool's alone.
func (x *Executor) drive(be core.Backend, body func(*core.StoreEngine, core.Backend)) {
	x.e.SetBackend(be)
	defer x.e.SetBackend(nil)
	body(x.e, be)
	x.e.CloseAll()
}

// runLoop replays the loop's access pattern over the bounds: its reads
// and read-modify-writes into be, its stores through the store engine.
func (x *Executor) runLoop(l *Loop, b Bounds, be core.Backend) {
	groups := l.groups()

	// Which write streams actually use NT stores: at most one
	// non-update stream per loop (the compiler's alignment constraint,
	// Sec. V-B), and only when NT mode is on.
	nt := make([]bool, len(l.Writes))
	if x.ntStores {
		for i, w := range l.Writes {
			if w.NT && !w.Update {
				nt[i] = true
				break
			}
		}
	}
	x.e.ConfigureStreams(len(l.Writes), nt)
	x.e.SetContext(x.Context(l.Class(), len(l.Writes), l.Eligible))

	for k := b.KLo; k <= b.KHi; k++ {
		for _, g := range groups {
			row := k + g.dk
			lo := g.a.Addr(b.JLo+g.minDJ, row)
			hi := g.a.Addr(b.JHi+g.maxDJ, row) + ElemBytes - 1
			// Each row is one sequential line run: replay it on the
			// batched memsim fast path.
			be.AccessRange(lo>>6, hi>>6-lo>>6+1, memsim.AccessLoad)
		}
		for i, w := range l.Writes {
			addr := w.A.Addr(b.JLo, k)
			n := int64(b.JHi-b.JLo+1) * ElemBytes
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
}
