package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// storePath is the store engine's surface the workouts drive, so they
// drive the engine and the per-line reference alike.
type storePath interface {
	Seed(s uint64)
	ConfigureStreams(n int, nt []bool)
	SetContext(ctx Context)
	StoreRange(stream int, addr, nBytes int64)
	CloseAll()
}

// storeWorkout drives one engine through the store shapes the traffic
// generators emit: long aligned rows, misaligned partial heads/tails,
// bridged halo gaps, NT streams, and mid-row interleaving across
// streams, with a context switch partway. It calls check after every
// StoreRange, SetContext and the closing CloseAll.
func storeWorkout(e storePath, ctx Context, nt bool, check func()) {
	e.Seed(0xd1ce)
	e.ConfigureStreams(3, []bool{nt, false, nt})
	e.SetContext(ctx)
	base := int64(1 << 22)
	for row := int64(0); row < 40; row++ {
		for s := 0; s < 3; s++ {
			addr := base + int64(s)*(1<<20) + row*4096
			// Misalign every third row and leave a bridged hole.
			if row%3 == 1 {
				addr += 24
			}
			e.StoreRange(s, addr, 1800)
			check()
			e.StoreRange(s, addr+1984, 2100)
			check()
		}
	}
	ctx2 := ctx
	ctx2.Class = machine.ClassPureStore
	e.SetContext(ctx2)
	check()
	e.StoreRange(0, base+(1<<21)+8, 64*37+17)
	check()
	e.CloseAll()
	check()
}

// TestEngineHandsOverEveryRetiredLine: the engine coalesces retired
// lines into runs, but no call returns with a run still pending. After
// every StoreRange, SetContext and CloseAll the backend has received
// exactly the lines Stats says were retired, kind by kind, so traffic
// the caller sends the backend next (the demand loads of the following
// row) stays ordered after them.
func TestEngineHandsOverEveryRetiredLine(t *testing.T) {
	for _, name := range machine.Names() {
		spec, _ := machine.ByName(name)
		for _, nt := range []bool{false, true} {
			ctx := Context{
				Pressure:      1,
				NodeFraction:  1,
				ActiveSockets: spec.Sockets,
				Class:         machine.ClassStencil,
				StoreStreams:  3,
				Eligible:      true,
				PFOn:          true,
			}
			be := &fakeBackend{}
			e := NewStoreEngine(be, spec)
			storeWorkout(e, ctx, nt, func() {
				t.Helper()
				st := e.Stats()
				received := len(be.rfos) + len(be.claims) + len(be.l2claims) + len(be.streamed) + len(be.nts) + len(be.reverts)
				claimed := len(be.claims) + len(be.l2claims) + len(be.streamed)
				if int64(received) != st.FullLines+st.PartialLines || int64(claimed) != st.Claimed ||
					int64(len(be.rfos)) != st.RFOs || int64(len(be.nts)) != st.NTLines || int64(len(be.reverts)) != st.NTReverted {
					t.Fatalf("%s nt=%t: backend received %d lines (%d rfo, %d claimed, %d nt, %d reverted), stats %+v",
						name, nt, received, len(be.rfos), claimed, len(be.nts), len(be.reverts), st)
				}
			})
			if st := e.Stats(); int64(be.runs) >= st.FullLines+st.PartialLines {
				t.Fatalf("%s nt=%t: %d runs for %d lines, want coalesced runs", name, nt, be.runs, st.FullLines+st.PartialLines)
			}
		}
	}
}

// randomWorkout is a seeded random storeWorkout: rows of 1–300 lines
// with element-aligned misaligned heads and tails, gaps of none, inside
// bridge lines, past them and backwards, rows split at an element
// boundary with another stream's row stored between the halves, and
// now and then a CloseAll or a SetContext. It calls check after every
// call.
func randomWorkout(p storePath, ctx Context, nt bool, bridge int, seed uint64, check func()) {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	p.Seed(r.Uint64())
	p.ConfigureStreams(3, []bool{nt, false, nt})
	check()
	p.SetContext(ctx)
	check()
	var next [3]int64 // the line after each stream's last row
	for s := range next {
		next[s] = int64(s+1) << 22
	}
	store := func(s int, addr, nBytes int64) {
		p.StoreRange(s, addr, nBytes)
		check()
	}
	row := func(s int) (addr, nBytes int64) {
		var gap int64
		switch r.IntN(5) {
		case 1:
			gap = 1 + r.Int64N(max(int64(bridge), 1)) // inside the bridge, or one past a zero bridge
		case 2:
			gap = int64(bridge) + 1 + r.Int64N(4)
		case 3:
			gap = -1 - r.Int64N(3)
		}
		first := next[s] + gap
		lines := 1 + r.Int64N(300)
		head, tail := 8*r.Int64N(8), 8*r.Int64N(8)
		nBytes = lines*machine.LineBytes - head - tail
		if nBytes <= 0 {
			nBytes = 8
		}
		next[s] = first + lines
		return first*machine.LineBytes + head, nBytes
	}
	for i := 0; i < 120; i++ {
		s := r.IntN(3)
		addr, nBytes := row(s)
		if cut := 8 * r.Int64N(nBytes/8+1); r.IntN(3) == 0 && cut > 0 && cut < nBytes {
			store(s, addr, cut)
			other := (s + 1 + r.IntN(2)) % 3
			oAddr, oBytes := row(other)
			store(other, oAddr, oBytes)
			store(s, addr+cut, nBytes-cut)
		} else {
			store(s, addr, nBytes)
		}
		switch r.IntN(40) {
		case 0:
			p.CloseAll()
			check()
		case 1:
			p.SetContext(ctx)
			check()
		}
	}
	p.CloseAll()
	check()
}

// perLine is the reference store path that retires full lines one at a
// time: storeFullLine, retireFull and a one-line emit, with its own
// switchLine and retirePartial. It shares the engine's state, PRNG and
// configuration calls, so the differential test below compares
// retirement alone.
type perLine StoreEngine

func (r *perLine) engine() *StoreEngine { return (*StoreEngine)(r) }

func (r *perLine) Seed(s uint64) { r.engine().Seed(s) }

func (r *perLine) ConfigureStreams(n int, nt []bool) {
	r.CloseAll()
	r.engine().ConfigureStreams(n, nt)
}

func (r *perLine) SetContext(ctx Context) {
	r.CloseAll()
	r.engine().SetContext(ctx)
}

func (r *perLine) emit(kind memsim.AccessKind, line int64) {
	if r.pendN > 0 && kind == r.pendKind && line == r.pendStart+r.pendN {
		r.pendN++
		return
	}
	r.engine().flushPending()
	r.pendKind, r.pendStart, r.pendN = kind, line, 1
}

func (r *perLine) StoreRange(stream int, addr, nBytes int64) {
	if nBytes <= 0 {
		return
	}
	s := &r.streams[stream]
	end := addr + nBytes
	line := addr >> 6
	endLine := (end - 1) >> 6
	headStart := addr & 63
	if headStart != 0 || end-addr < machine.LineBytes {
		hi := int64(machine.LineBytes)
		if end-line*machine.LineBytes < machine.LineBytes {
			hi = end - line*machine.LineBytes
		}
		r.storeBytes(s, line, headStart, hi)
		line++
		if line > endLine {
			r.engine().flushPending()
			return
		}
	}
	for ; line < endLine; line++ {
		r.storeFullLine(s, line)
	}
	tail := end - endLine*machine.LineBytes
	if line == endLine {
		if tail == machine.LineBytes {
			r.storeFullLine(s, line)
		} else {
			r.storeBytes(s, line, 0, tail)
		}
	}
	r.engine().flushPending()
}

func (r *perLine) storeBytes(s *streamState, line, lo, hi int64) {
	if s.line != line {
		r.switchLine(s, line)
	}
	n := hi - lo
	var m uint64
	if n >= 64 {
		m = fullMask
	} else {
		m = ((uint64(1) << uint(n)) - 1) << uint(lo)
	}
	s.mask |= m
	if s.mask == fullMask {
		r.retireFull(s)
		s.line = -1
		s.mask = 0
	}
}

func (r *perLine) storeFullLine(s *streamState, line int64) {
	if s.line != line {
		r.switchLine(s, line)
	}
	s.mask = fullMask
	r.retireFull(s)
	s.line = -1
	s.mask = 0
}

func (r *perLine) switchLine(s *streamState, line int64) {
	if s.line >= 0 && s.mask != 0 {
		r.retirePartial(s)
	}
	switch {
	case s.last < 0:
	case line == s.last+1:
	case line > s.last+1 && line-s.last-1 <= int64(r.bridge):
	default:
		s.runLen = 0
	}
	s.line = line
	s.mask = 0
}

func (r *perLine) retireFull(s *streamState) {
	r.stats.FullLines++
	line := s.line
	s.last = line
	if s.nt {
		if r.ntRev > 0 && r.engine().rand() < r.ntRev {
			r.stats.NTReverted++
			r.emit(memsim.AccessWriteNTReverted, line)
		} else {
			r.stats.NTLines++
			r.emit(memsim.AccessWriteNT, line)
		}
		s.runLen++
		return
	}
	s.runLen++
	if r.eff > 0 && s.runLen > r.minRun && r.engine().rand() < r.eff {
		r.stats.Claimed++
		switch r.spec.I2M.Mode {
		case machine.EvasionWriteStream:
			r.emit(memsim.AccessWriteStreamed, line)
		case machine.EvasionClaimZero:
			r.emit(memsim.AccessClaimL2, line)
		default:
			r.emit(memsim.AccessClaimI2M, line)
		}
		return
	}
	r.stats.RFOs++
	r.emit(memsim.AccessRFO, line)
}

func (r *perLine) retirePartial(s *streamState) {
	r.stats.PartialLines++
	s.last = s.line
	if s.nt {
		r.stats.NTLines++
		r.emit(memsim.AccessWriteNT, s.line)
	} else {
		r.stats.RFOs++
		r.emit(memsim.AccessRFO, s.line)
	}
	s.runLen = 0
}

func (r *perLine) CloseAll() {
	for i := range r.streams {
		s := &r.streams[i]
		if s.line >= 0 && s.mask != 0 {
			if s.mask == fullMask {
				r.retireFull(s)
			} else {
				r.retirePartial(s)
			}
		}
		s.line = -1
		s.mask = 0
		s.last = -1
		s.runLen = 0
	}
	r.engine().flushPending()
}

// lockstep applies every call to the engine and to the per-line
// reference.
type lockstep struct {
	e   *StoreEngine
	ref *perLine
}

func (l lockstep) Seed(s uint64) { l.e.Seed(s); l.ref.Seed(s) }

func (l lockstep) ConfigureStreams(n int, nt []bool) {
	l.e.ConfigureStreams(n, nt)
	l.ref.ConfigureStreams(n, nt)
}

func (l lockstep) SetContext(ctx Context) { l.e.SetContext(ctx); l.ref.SetContext(ctx) }

func (l lockstep) StoreRange(stream int, addr, nBytes int64) {
	l.e.StoreRange(stream, addr, nBytes)
	l.ref.StoreRange(stream, addr, nBytes)
}

func (l lockstep) CloseAll() { l.e.CloseAll(); l.ref.CloseAll() }

// TestEngineMatchesPerLineReference: on every preset (their I2M modes
// claim by ItoM, write streaming and claim-zero), with NT streams on and
// off, eligible and ineligible loops, prefetchers on and off, and node
// fractions with and without NT reverts, the engine hands the backend
// the same operations in the same runs as the per-line reference, after
// every call, with the same PRNG state, statistics and stream state, on
// storeWorkout and on seeded random workouts. Equal runs mean equal
// loop memo keys.
func TestEngineMatchesPerLineReference(t *testing.T) {
	seen := map[memsim.AccessKind]bool{}
	var zeroRevert, someRevert bool
	for _, name := range machine.Names() {
		spec, _ := machine.ByName(name)
		for _, nt := range []bool{false, true} {
			for _, eligible := range []bool{false, true} {
				for _, pf := range []bool{false, true} {
					for _, frac := range []float64{0.01, 1} {
						ctx := Context{
							Pressure:      0.9,
							NodeFraction:  frac,
							ActiveSockets: spec.Sockets,
							Class:         machine.ClassStencil,
							StoreStreams:  3,
							Eligible:      eligible,
							PFOn:          pf,
						}
						label := fmt.Sprintf("%s nt=%t eligible=%t pf=%t frac=%g", name, nt, eligible, pf, frac)
						run := func(workout string, drive func(storePath, func())) {
							be, refBe := &fakeBackend{}, &fakeBackend{}
							l := lockstep{NewStoreEngine(be, spec), (*perLine)(NewStoreEngine(refBe, spec))}
							calls, checked := 0, 0
							drive(l, func() {
								t.Helper()
								calls++
								e, ref := l.e, l.ref
								if len(be.log) != len(refBe.log) || !slices.Equal(be.log[checked:], refBe.log[checked:]) ||
									e.rng != ref.rng || e.stats != ref.stats ||
									!slices.Equal(e.streams, ref.streams) || e.pendN != 0 || ref.pendN != 0 {
									t.Fatalf("%s, %s call %d: engine handed over %d runs, rng %#x, stats %+v; reference %d runs, rng %#x, stats %+v",
										label, workout, calls, len(be.log), e.rng, e.stats, len(refBe.log), ref.rng, ref.stats)
								}
								checked = len(be.log)
								if nt {
									zeroRevert = zeroRevert || e.ntRev == 0
									someRevert = someRevert || e.ntRev > 0
								}
							})
							for _, op := range be.log {
								seen[op.kind] = true
							}
						}
						run("storeWorkout", func(p storePath, check func()) { storeWorkout(p, ctx, nt, check) })
						for seed := uint64(1); seed <= 2; seed++ {
							run(fmt.Sprintf("random workout %d", seed), func(p storePath, check func()) {
								randomWorkout(p, ctx, nt, spec.I2M.BridgeLines, seed, check)
							})
						}
					}
				}
			}
		}
	}
	if !zeroRevert || !someRevert {
		t.Errorf("NT streams with a zero revert fraction seen %t, with a non-zero one %t; want both", zeroRevert, someRevert)
	}
	for _, k := range []memsim.AccessKind{memsim.AccessRFO, memsim.AccessClaimI2M, memsim.AccessClaimL2,
		memsim.AccessWriteStreamed, memsim.AccessWriteNT, memsim.AccessWriteNTReverted} {
		if !seen[k] {
			t.Errorf("no workout handed over a %v run", k)
		}
	}
}
