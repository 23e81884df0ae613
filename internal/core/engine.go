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
	"cloversim/internal/memsim"
)

const fullMask = ^uint64(0)

// Backend is the cache/memory hierarchy the store engine drives:
// *memsim.Hierarchy, or a test fake. The engine decides store lines in
// order, line by line where the evasion dice demand it, and the
// resulting line operations come in long same-kind runs (every line of
// a CLX row pays an RFO, every line of an NT row goes out
// non-temporally), which the engine coalesces and hands over in
// original order.
type Backend interface {
	// AccessRange performs n operations of one kind on the consecutive
	// lines start..start+n-1 (line index = byte address / 64), exactly
	// as n one-line operations in order would.
	AccessRange(start, n int64, kind memsim.AccessKind)
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

// streamState tracks the open store line of one write stream.
type streamState struct {
	line   int64  // currently open (partially filled) line index, or -1
	mask   uint64 // byte-valid mask of the open line
	last   int64  // last retired line index, or -1 (run-detector anchor)
	runLen int    // consecutive full-line stores ending at `last`
	nt     bool   // this stream uses non-temporal stores
}

// Stats counts store-path decisions over the engine's lifetime.
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
	pendKind  memsim.AccessKind
	pendStart int64
	pendN     int64
}

// NewStoreEngine creates a store engine over the backend for the machine.
func NewStoreEngine(be Backend, spec *machine.Spec) *StoreEngine {
	return &StoreEngine{be: be, spec: spec, rng: 0x9e3779b97f4a7c15}
}

// emit queues n > 0 operations of one kind on the lines line..line+n-1:
// it extends the pending run, or hands that run over and starts a new
// one.
func (e *StoreEngine) emit(kind memsim.AccessKind, line, n int64) {
	if e.pendN > 0 && kind == e.pendKind && line == e.pendStart+e.pendN {
		e.pendN += n
		return
	}
	e.flushPending()
	e.pendKind, e.pendStart, e.pendN = kind, line, n
}

// flushPending hands the pending run to the backend.
func (e *StoreEngine) flushPending() {
	if e.pendN == 0 {
		return
	}
	e.be.AccessRange(e.pendStart, e.pendN, e.pendKind)
	e.pendN = 0
}

// SetBackend points the engine at another backend. Switch between
// loops, after CloseAll, so no pending run crosses from one backend to
// the other.
func (e *StoreEngine) SetBackend(be Backend) { e.be = be }

// Checkpoint is the engine state a loop replay advances beyond what
// ConfigureStreams and SetContext reset: the PRNG and the statistics.
type Checkpoint struct {
	rng   uint64
	stats Stats
}

// Checkpoint captures the engine's PRNG and statistics.
func (e *StoreEngine) Checkpoint() Checkpoint { return Checkpoint{rng: e.rng, stats: e.stats} }

// Rewind restores a checkpoint and drops, unretired, any open store
// line and pending backend run: the same loop replayed again draws the
// same dice and retires the same lines.
func (e *StoreEngine) Rewind(c Checkpoint) {
	e.rng, e.stats = c.rng, c.stats
	e.streams = e.streams[:0]
	e.pendN = 0
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
	if headStart != 0 || end-addr < machine.LineBytes {
		hi := int64(machine.LineBytes)
		if end-line*machine.LineBytes < machine.LineBytes {
			hi = end - line*machine.LineBytes
		}
		e.storeBytes(s, line, headStart, hi)
		line++
		if line > endLine {
			e.flushPending()
			return
		}
	}

	// Middle and tail: the full lines up to endLine in one run, then
	// the last line if it is partial.
	tail := end - endLine*machine.LineBytes
	full := endLine - line
	if tail == machine.LineBytes {
		full++
	}
	if full > 0 {
		e.retireRun(s, line, full)
	}
	if tail != machine.LineBytes {
		e.storeBytes(s, endLine, 0, tail)
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
		e.retireRun(s, line, 1)
	}
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

// retireRun decides the fate of the m completely written lines
// line..line+m-1 of the stream, in order, exactly as m one-line stores
// would: the same dice in the same order, the same statistics and the
// same coalesced runs. A stream that draws no dice retires all m lines
// in one step.
func (e *StoreEngine) retireRun(s *streamState, line, m int64) {
	if s.line != line {
		e.switchLine(s, line)
	}
	s.line = -1
	s.mask = 0
	s.last = line + m - 1
	e.stats.FullLines += m
	if s.nt {
		s.runLen += int(m) // NT streams keep their own run notion (harmless)
		if e.ntRev <= 0 {
			e.stats.NTLines += m
			e.emit(memsim.AccessWriteNT, line, m)
			return
		}
		for end := line + m; line < end; line++ {
			if e.rand() < e.ntRev {
				e.stats.NTReverted++
				e.emit(memsim.AccessWriteNTReverted, line, 1)
			} else {
				e.stats.NTLines++
				e.emit(memsim.AccessWriteNT, line, 1)
			}
		}
		return
	}
	// Lines up to the detector's warm-up, and every line without
	// evasion, pay a write-allocate without a die.
	free := m
	if e.eff > 0 {
		free = min(m, max(0, int64(e.minRun-s.runLen)))
	}
	s.runLen += int(m)
	if free > 0 {
		e.stats.RFOs += free
		e.emit(memsim.AccessRFO, line, free)
	}
	claim := memsim.AccessClaimI2M
	switch e.spec.I2M.Mode {
	case machine.EvasionWriteStream:
		claim = memsim.AccessWriteStreamed
	case machine.EvasionClaimZero:
		claim = memsim.AccessClaimL2
	}
	for line, end := line+free, line+m; line < end; line++ {
		if e.rand() < e.eff {
			e.stats.Claimed++
			e.emit(claim, line, 1)
		} else {
			e.stats.RFOs++
			e.emit(memsim.AccessRFO, line, 1)
		}
	}
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
		e.emit(memsim.AccessWriteNT, s.line, 1)
	} else {
		e.stats.RFOs++
		e.emit(memsim.AccessRFO, s.line, 1)
	}
	s.runLen = 0
}

// CloseAll flushes all open (partial) lines, e.g. at the end of a loop.
func (e *StoreEngine) CloseAll() {
	for i := range e.streams {
		s := &e.streams[i]
		if s.line >= 0 && s.mask != 0 {
			if s.mask == fullMask {
				e.retireRun(s, s.line, 1)
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
