// Package core implements the paper's primary subject: the store path of
// a modern Intel core with dynamic write-allocate evasion ("SpecI2M"),
// classic write-allocates (read-for-ownership), and non-temporal stores
// with write-combine buffers.
//
// The engine is mechanistic where the paper's findings are mechanistic:
//
//   - a per-stream run detector claims a store line as ItoM (no memory
//     read) only after MinRunLines consecutive full-line stores, so short
//     inner loops — the prime-number effect — mechanically lose evasion;
//   - holes of up to BridgeLines full lines (aligned halos) do not reset
//     the detector, larger or misaligned holes do (Fig. 8);
//   - partially written cache lines always cost a write-allocate;
//   - NT stores bypass the hierarchy via write-combine semantics, with a
//     machine-calibrated fraction reverting to write-allocates under high
//     core counts (Fig. 5).
//
// The evasion *efficiency* under bandwidth pressure is taken from
// machine-specific calibration curves (see internal/machine), mirroring
// the paper's own phenomenological factor.
package core

import (
	"fmt"

	"cloversim/internal/machine"
)

// LineBytes is the cache-line size of all modeled machines.
const LineBytes = 64

const fullMask = ^uint64(0)

// Backend is the cache/memory hierarchy the store engine drives.
// internal/memsim provides the canonical implementation.
type Backend interface {
	// Load performs a demand load of the given cache line (line index =
	// byte address / 64).
	Load(line int64)
	// RFO performs a read-for-ownership (write-allocate): the line is
	// fetched and installed dirty.
	RFO(line int64)
	// ClaimI2M claims the line dirty at the L3 without any memory read
	// and counts an ItoM event (Intel SpecI2M).
	ClaimI2M(line int64)
	// ClaimL2 claims the line dirty in the private L2 without a memory
	// read (A64FX cache-line zero).
	ClaimL2(line int64)
	// WriteStreamed writes the line straight to memory, bypassing the
	// hierarchy (ARM write-streaming mode; distinct from WriteNT only in
	// accounting).
	WriteStreamed(line int64)
	// WriteNT writes a full or partial line directly to memory,
	// bypassing the hierarchy.
	WriteNT(line int64)
	// WriteNTReverted accounts for an NT store that the hardware
	// reverted into a regular write-allocate store.
	WriteNTReverted(line int64)
}

// Context describes the run conditions of one loop execution on one core.
type Context struct {
	// Pressure is the bandwidth-saturation fraction of this core's
	// ccNUMA domain (0..1).
	Pressure float64
	// NodeFraction is the fraction of the node's cores that are active
	// (drives NT revert behaviour).
	NodeFraction float64
	// ActiveSockets is the number of sockets with at least one active core.
	ActiveSockets int
	// Class is the kernel class (pure store / copy / stencil).
	Class machine.KernelClass
	// StoreStreams is the number of concurrent write streams.
	StoreStreams int
	// Eligible marks the loop's stores as recognizable by SpecI2M. The
	// paper found that some loop shapes (pure copy ac01/ac05, branchy
	// ac02/ac06) are never claimed on ICX.
	Eligible bool
	// PFOn reflects the hardware prefetcher state.
	PFOn bool
}

// RangeBackend is an optional Backend extension: a backend that can
// replay a run of consecutive same-kind line operations in one batched
// call (memsim.Hierarchy.AccessRange). The engine retires store lines
// one at a time — the run detector and the per-line evasion dice demand
// it — but the resulting backend operations come in long same-kind runs
// (every line of a CLX row pays an RFO, every line of an NT row goes
// out non-temporally), which the engine coalesces and hands over
// batched, in original order, when the backend supports it. A batched
// run must leave the backend exactly as the per-line calls would, so
// coalescing never changes results; keeping runs maximal only saves
// per-call overhead.
type RangeBackend interface {
	RFORange(start, n int64)
	ClaimI2MRange(start, n int64)
	ClaimL2Range(start, n int64)
	WriteStreamedRange(start, n int64)
	WriteNTRange(start, n int64)
	WriteNTRevertedRange(start, n int64)
}

// pendKind tags the operation kind of the engine's pending run.
type pendKind uint8

const (
	pendNone pendKind = iota
	pendRFO
	pendClaimI2M
	pendClaimL2
	pendWS
	pendNT
	pendNTRev
)

// streamState tracks the open store line of one write stream.
type streamState struct {
	line   int64  // currently open (partially filled) line index, or -1
	mask   uint64 // byte-valid mask of the open line
	last   int64  // last retired line index, or -1 (run-detector anchor)
	runLen int    // consecutive full-line stores ending at `last`
	nt     bool   // this stream uses non-temporal stores
}

// Stats counts store-path decisions (per engine since last ResetStats).
type Stats struct {
	FullLines    int64 // full-line stores retired
	PartialLines int64 // partially written lines retired
	Claimed      int64 // full lines claimed via SpecI2M (ItoM)
	RFOs         int64 // lines that paid a write-allocate
	NTLines      int64 // lines written via NT path
	NTReverted   int64 // NT lines reverted to write-allocate
}

// StoreEngine models one core's store path.
type StoreEngine struct {
	be      Backend
	rb      RangeBackend // non-nil when be supports batched runs
	spec    *machine.Spec
	ctx     Context
	eff     float64 // cached evasion efficiency for ctx
	ntRev   float64 // cached NT revert fraction for ctx
	minRun  int
	bridge  int
	rng     uint64
	streams []streamState
	stats   Stats
	// pending run of same-kind consecutive-line backend operations,
	// flushed on any kind/contiguity break and at call boundaries
	// (StoreRange returns with nothing pending, so interleaved direct
	// backend traffic from the caller stays ordered).
	pendKind  pendKind
	pendStart int64
	pendN     int64
}

// NewStoreEngine creates a store engine over the backend for the machine.
func NewStoreEngine(be Backend, spec *machine.Spec) *StoreEngine {
	rb, _ := be.(RangeBackend)
	return &StoreEngine{be: be, rb: rb, spec: spec, rng: 0x9e3779b97f4a7c15}
}

// emit hands one backend line operation over: batched through the
// pending run when the backend supports ranges, directly otherwise.
func (e *StoreEngine) emit(kind pendKind, line int64) {
	if e.rb == nil {
		switch kind {
		case pendRFO:
			e.be.RFO(line)
		case pendClaimI2M:
			e.be.ClaimI2M(line)
		case pendClaimL2:
			e.be.ClaimL2(line)
		case pendWS:
			e.be.WriteStreamed(line)
		case pendNT:
			e.be.WriteNT(line)
		case pendNTRev:
			e.be.WriteNTReverted(line)
		}
		return
	}
	if kind == e.pendKind && line == e.pendStart+e.pendN {
		e.pendN++
		return
	}
	e.flushPending()
	e.pendKind, e.pendStart, e.pendN = kind, line, 1
}

// flushPending replays the pending run on the batched backend path.
func (e *StoreEngine) flushPending() {
	if e.pendN == 0 {
		return
	}
	switch e.pendKind {
	case pendRFO:
		e.rb.RFORange(e.pendStart, e.pendN)
	case pendClaimI2M:
		e.rb.ClaimI2MRange(e.pendStart, e.pendN)
	case pendClaimL2:
		e.rb.ClaimL2Range(e.pendStart, e.pendN)
	case pendWS:
		e.rb.WriteStreamedRange(e.pendStart, e.pendN)
	case pendNT:
		e.rb.WriteNTRange(e.pendStart, e.pendN)
	case pendNTRev:
		e.rb.WriteNTRevertedRange(e.pendStart, e.pendN)
	}
	e.pendKind, e.pendStart, e.pendN = pendNone, 0, 0
}

// Seed reseeds the engine's deterministic PRNG.
func (e *StoreEngine) Seed(s uint64) {
	if s == 0 {
		s = 1
	}
	e.rng = s
}

// SetContext installs the run conditions and recomputes the cached
// efficiency values. Open lines of a previous context are flushed first.
func (e *StoreEngine) SetContext(ctx Context) {
	e.CloseAll()
	e.ctx = ctx
	e.eff = 0
	if ctx.Eligible {
		e.eff = e.spec.EvasionEff(ctx.Pressure, ctx.Class, ctx.StoreStreams, ctx.ActiveSockets, ctx.PFOn)
	}
	e.ntRev = e.spec.NTRevert(ctx.NodeFraction)
	e.minRun = e.spec.MinRun(ctx.PFOn)
	e.bridge = e.spec.I2M.BridgeLines
}

// Context returns the active context.
func (e *StoreEngine) Context() Context { return e.ctx }

// Eff returns the cached evasion efficiency of the active context.
func (e *StoreEngine) Eff() float64 { return e.eff }

// ConfigureStreams sets the number of write streams and which of them use
// non-temporal stores. It flushes all previously open lines.
func (e *StoreEngine) ConfigureStreams(n int, nt []bool) {
	e.CloseAll()
	if cap(e.streams) < n {
		e.streams = make([]streamState, n)
	}
	e.streams = e.streams[:n]
	for i := range e.streams {
		e.streams[i] = streamState{line: -1, last: -1}
		if nt != nil && i < len(nt) {
			e.streams[i].nt = nt[i]
		}
	}
}

// Stats returns the accumulated store-path statistics.
func (e *StoreEngine) Stats() Stats { return e.stats }

// ResetStats clears the statistics.
func (e *StoreEngine) ResetStats() { e.stats = Stats{} }

// xorshift64* PRNG; deterministic given Seed.
func (e *StoreEngine) rand() float64 {
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / (1 << 53)
}

// StoreRange stores nBytes starting at byte address addr into the given
// write stream, handling partial head/tail lines exactly and full lines on
// a fast path. Addresses must be element-aligned; overlapping re-stores of
// the same byte are idempotent within an open line.
func (e *StoreEngine) StoreRange(stream int, addr, nBytes int64) {
	if nBytes <= 0 {
		return
	}
	s := &e.streams[stream]
	end := addr + nBytes
	line := addr >> 6
	endLine := (end - 1) >> 6

	// Head: partial first line (or full if aligned and long enough).
	headStart := addr & 63
	if headStart != 0 || end-addr < LineBytes {
		hi := int64(LineBytes)
		if end-line*LineBytes < LineBytes {
			hi = end - line*LineBytes
		}
		e.storeBytes(s, line, headStart, hi)
		line++
		if line > endLine {
			e.flushPending()
			return
		}
		addr = line * LineBytes
	}

	// Middle: full lines.
	for ; line < endLine; line++ {
		e.storeFullLine(s, line)
	}

	// Tail: last line, possibly partial.
	tail := end - endLine*LineBytes
	if line == endLine {
		if tail == LineBytes {
			e.storeFullLine(s, line)
		} else {
			e.storeBytes(s, line, 0, tail)
		}
	}
	// Return with nothing pending so backend traffic the caller issues
	// directly (demand loads of the next row) stays globally ordered.
	e.flushPending()
}

// storeBytes merges a byte range [lo,hi) into the stream's open line.
func (e *StoreEngine) storeBytes(s *streamState, line, lo, hi int64) {
	if s.line != line {
		e.switchLine(s, line)
	}
	// Build mask bits lo..hi-1.
	n := hi - lo
	var m uint64
	if n >= 64 {
		m = fullMask
	} else {
		m = ((uint64(1) << uint(n)) - 1) << uint(lo)
	}
	s.mask |= m
	if s.mask == fullMask {
		e.retireFull(s)
		s.line = -1
		s.mask = 0
	}
}

// storeFullLine is the fast path for a complete 64-byte store.
func (e *StoreEngine) storeFullLine(s *streamState, line int64) {
	if s.line != line {
		e.switchLine(s, line)
	}
	s.mask = fullMask
	e.retireFull(s)
	s.line = -1
	s.mask = 0
}

// switchLine retires the currently open line (if any) and opens `line`,
// updating the run detector according to the gap since the last retired
// line.
func (e *StoreEngine) switchLine(s *streamState, line int64) {
	if s.line >= 0 && s.mask != 0 {
		e.retirePartial(s)
	}
	switch {
	case s.last < 0:
		// cold detector: first line of the stream
	case line == s.last+1:
		// contiguous: run continues (runLen updated at retire time)
	case line > s.last+1 && line-s.last-1 <= int64(e.bridge):
		// small aligned hole: bridged, run survives
	default:
		s.runLen = 0
	}
	s.line = line
	s.mask = 0
}

// retireFull decides the fate of a completely written line.
func (e *StoreEngine) retireFull(s *streamState) {
	e.stats.FullLines++
	line := s.line
	s.last = line
	if s.nt {
		if e.ntRev > 0 && e.rand() < e.ntRev {
			e.stats.NTReverted++
			e.emit(pendNTRev, line)
		} else {
			e.stats.NTLines++
			e.emit(pendNT, line)
		}
		s.runLen++ // NT streams keep their own run notion (harmless)
		return
	}
	s.runLen++
	if e.eff > 0 && s.runLen > e.minRun && e.rand() < e.eff {
		e.stats.Claimed++
		switch e.spec.I2M.Mode {
		case machine.EvasionWriteStream:
			e.emit(pendWS, line)
		case machine.EvasionClaimZero:
			e.emit(pendClaimL2, line)
		default:
			e.emit(pendClaimI2M, line)
		}
		return
	}
	e.stats.RFOs++
	e.emit(pendRFO, line)
}

// retirePartial handles a line evicted from the store window while only
// partially written: it always costs a write-allocate (or a masked NT
// write-combine flush for NT streams) and resets the run detector.
func (e *StoreEngine) retirePartial(s *streamState) {
	e.stats.PartialLines++
	s.last = s.line
	if s.nt {
		// Partial WC flush: masked write transactions, no ownership read.
		e.stats.NTLines++
		e.emit(pendNT, s.line)
	} else {
		e.stats.RFOs++
		e.emit(pendRFO, s.line)
	}
	s.runLen = 0
}

// CloseAll flushes all open (partial) lines, e.g. at the end of a loop.
func (e *StoreEngine) CloseAll() {
	for i := range e.streams {
		s := &e.streams[i]
		if s.line >= 0 && s.mask != 0 {
			if s.mask == fullMask {
				e.retireFull(s)
			} else {
				e.retirePartial(s)
			}
		}
		s.line = -1
		s.mask = 0
		s.last = -1
		s.runLen = 0
	}
	e.flushPending()
}

// Validate sanity-checks the engine configuration.
func (e *StoreEngine) Validate() error {
	if e.be == nil {
		return fmt.Errorf("core: nil backend")
	}
	if e.spec == nil {
		return fmt.Errorf("core: nil machine spec")
	}
	return nil
}
