package core

import (
	"slices"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// fakeBackend records store-path decisions per line.
type fakeBackend struct {
	loads, rfos, claims, nts, reverts, l2claims, streamed []int64
	runs                                                  int       // AccessRange calls
	log                                                   []rangeOp // every call, in order
}

// rangeOp is one AccessRange call.
type rangeOp struct {
	kind     memsim.AccessKind
	start, n int64
}

// AccessRange records the run in the log, and line by line under its
// kind.
func (f *fakeBackend) AccessRange(start, n int64, kind memsim.AccessKind) {
	f.log = append(f.log, rangeOp{kind, start, n})
	lines := map[memsim.AccessKind]*[]int64{
		memsim.AccessLoad:            &f.loads,
		memsim.AccessRFO:             &f.rfos,
		memsim.AccessClaimI2M:        &f.claims,
		memsim.AccessClaimL2:         &f.l2claims,
		memsim.AccessWriteStreamed:   &f.streamed,
		memsim.AccessWriteNT:         &f.nts,
		memsim.AccessWriteNTReverted: &f.reverts,
	}[kind]
	for line := start; line < start+n; line++ {
		*lines = append(*lines, line)
	}
	f.runs++
}

func newEngine(t *testing.T, ctx Context) (*StoreEngine, *fakeBackend) {
	t.Helper()
	be := &fakeBackend{}
	e := NewStoreEngine(be, machine.ICX8360Y())
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	e.ConfigureStreams(2, []bool{false, false})
	e.SetContext(ctx)
	return e, be
}

func ctxNoEvasion() Context {
	return Context{Pressure: 0, Class: machine.ClassStencil, StoreStreams: 1, Eligible: true, PFOn: true}
}

func ctxFullEvasion() Context {
	// Saturated single socket, copy class: efficiency ~0.99.
	return Context{Pressure: 1, NodeFraction: 0.25, ActiveSockets: 1,
		Class: machine.ClassCopy, StoreStreams: 1, Eligible: true, PFOn: true}
}

func TestFullLineStoresNoEvasionAreRFOs(t *testing.T) {
	e, be := newEngine(t, ctxNoEvasion())
	e.StoreRange(0, 0, 64*10)
	e.CloseAll()
	if len(be.rfos) != 10 {
		t.Fatalf("10 full lines stored, %d RFOs recorded", len(be.rfos))
	}
	if len(be.claims) != 0 || len(be.nts) != 0 {
		t.Fatalf("unexpected claims/NT at zero pressure: %d/%d", len(be.claims), len(be.nts))
	}
	s := e.Stats()
	if s.FullLines != 10 || s.PartialLines != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEvasionClaimsAfterWarmup(t *testing.T) {
	e, be := newEngine(t, ctxFullEvasion())
	const lines = 1000
	e.StoreRange(0, 0, 64*lines)
	e.CloseAll()
	warm := e.spec.MinRun(true)
	if len(be.rfos) < warm {
		t.Fatalf("first %d lines must warm the detector, got %d RFOs", warm, len(be.rfos))
	}
	claimFrac := float64(len(be.claims)) / float64(lines)
	if claimFrac < 0.9 {
		t.Fatalf("claim fraction %.2f, want > 0.9 at full evasion", claimFrac)
	}
	if len(be.claims)+len(be.rfos) != lines {
		t.Fatalf("claims %d + RFOs %d != %d", len(be.claims), len(be.rfos), lines)
	}
}

func TestShortRunsNeverClaim(t *testing.T) {
	// Rows shorter than the warm-up (3 lines < MinRunLines=5) with big
	// gaps: the detector never opens — the prime-number-effect mechanism.
	e, be := newEngine(t, ctxFullEvasion())
	addr := int64(0)
	for row := 0; row < 50; row++ {
		e.StoreRange(0, addr, 64*3)
		addr += 64 * 100 // far jump: reset
	}
	e.CloseAll()
	if len(be.claims) != 0 {
		t.Fatalf("short rows claimed %d lines, want 0", len(be.claims))
	}
}

func TestBridgedHolesKeepTheRun(t *testing.T) {
	// Aligned 1-line holes (halo 8 elements) are bridged on ICX
	// (BridgeLines=2), so long strip-mined streams still claim.
	e, be := newEngine(t, ctxFullEvasion())
	addr := int64(0)
	for row := 0; row < 100; row++ {
		e.StoreRange(0, addr, 64*27) // 216 elements
		addr += 64 * 28              // skip exactly one line
	}
	e.CloseAll()
	frac := float64(len(be.claims)) / float64(100*27)
	if frac < 0.75 {
		t.Fatalf("bridged strip-mining claim fraction %.2f, want > 0.75", frac)
	}

	// A 3-line hole exceeds BridgeLines and resets the detector:
	// 4-line rows never reach the warm-up of 5 again.
	e2, be2 := newEngine(t, ctxFullEvasion())
	addr = 0
	for row := 0; row < 100; row++ {
		e2.StoreRange(0, addr, 64*4)
		addr += 64 * 7 // hole of 3 lines
	}
	e2.CloseAll()
	if len(be2.claims) != 0 {
		t.Fatalf("unbridged holes still claimed %d lines", len(be2.claims))
	}
}

func TestPartialLinesAlwaysRFO(t *testing.T) {
	e, be := newEngine(t, ctxFullEvasion())
	// Misaligned rows: 216 elements with halo 1 -> period 217 elements.
	addr := int64(0)
	for row := 0; row < 40; row++ {
		e.StoreRange(0, addr, 216*8)
		addr += 217 * 8
	}
	e.CloseAll()
	s := e.Stats()
	if s.PartialLines == 0 {
		t.Fatal("misaligned rows must produce partial lines")
	}
	if len(be.rfos) < int(s.PartialLines) {
		t.Fatalf("every partial line needs an RFO: %d partials, %d RFOs",
			s.PartialLines, len(be.rfos))
	}
}

func TestNTStoresBypass(t *testing.T) {
	e, be := newEngine(t, Context{
		Pressure: 0, NodeFraction: 0.01, ActiveSockets: 1,
		Class: machine.ClassPureStore, StoreStreams: 1, Eligible: true, PFOn: true,
	})
	e.ConfigureStreams(1, []bool{true})
	e.SetContext(e.Context()) // recompute with NT revert ~0 at 1 core
	e.StoreRange(0, 0, 64*100)
	e.CloseAll()
	if len(be.nts) != 100 {
		t.Fatalf("NT lines = %d, want 100", len(be.nts))
	}
	if len(be.rfos) != 0 || len(be.claims) != 0 {
		t.Fatalf("NT stores must bypass RFO/claim: %d/%d", len(be.rfos), len(be.claims))
	}
}

func TestNTRevertsUnderLoad(t *testing.T) {
	e, be := newEngine(t, Context{
		Pressure: 1, NodeFraction: 1, ActiveSockets: 2,
		Class: machine.ClassPureStore, StoreStreams: 1, Eligible: true, PFOn: true,
	})
	e.ConfigureStreams(1, []bool{true})
	e.SetContext(e.Context())
	const lines = 20000
	e.StoreRange(0, 0, 64*lines)
	e.CloseAll()
	frac := float64(len(be.reverts)) / float64(lines)
	// Fig. 5: ~16.5% of NT stores revert at the full node.
	if frac < 0.13 || frac > 0.20 {
		t.Fatalf("NT revert fraction %.3f, want ~0.165", frac)
	}
	if len(be.nts)+len(be.reverts) != lines {
		t.Fatalf("NT + reverts = %d, want %d", len(be.nts)+len(be.reverts), lines)
	}
}

func TestIneligibleLoopsNeverClaim(t *testing.T) {
	ctx := ctxFullEvasion()
	ctx.Eligible = false // ac01/ac05 behaviour on ICX
	e, be := newEngine(t, ctx)
	e.StoreRange(0, 0, 64*500)
	e.CloseAll()
	if len(be.claims) != 0 {
		t.Fatalf("ineligible loop claimed %d lines", len(be.claims))
	}
	if len(be.rfos) != 500 {
		t.Fatalf("want 500 RFOs, got %d", len(be.rfos))
	}
}

func TestTwoStreamsIndependentRuns(t *testing.T) {
	e, be := newEngine(t, Context{
		Pressure: 1, NodeFraction: 0.25, ActiveSockets: 1,
		Class: machine.ClassCopy, StoreStreams: 2, Eligible: true, PFOn: true,
	})
	// Interleave two streams line by line; each stream is contiguous in
	// its own address range, so both runs stay warm.
	a, b := int64(0), int64(1<<20)
	for i := 0; i < 200; i++ {
		e.StoreRange(0, a, 64)
		e.StoreRange(1, b, 64)
		a += 64
		b += 64
	}
	e.CloseAll()
	frac := float64(len(be.claims)) / 400
	if frac < 0.9 {
		t.Fatalf("interleaved streams claim fraction %.2f, want > 0.9", frac)
	}
}

func TestByteGranularMask(t *testing.T) {
	e, be := newEngine(t, ctxNoEvasion())
	// Fill one line in 8 separate 8-byte stores: exactly one RFO.
	for i := int64(0); i < 8; i++ {
		e.StoreRange(0, i*8, 8)
	}
	e.CloseAll()
	if len(be.rfos) != 1 {
		t.Fatalf("one full line from 8 partial stores: %d RFOs", len(be.rfos))
	}
	if e.Stats().FullLines != 1 || e.Stats().PartialLines != 0 {
		t.Fatalf("stats %+v", e.Stats())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		e, _ := newEngine(t, ctxFullEvasion())
		e.Seed(42)
		e.StoreRange(0, 0, 64*5000)
		e.CloseAll()
		return e.Stats()
	}
	if run() != run() {
		t.Fatal("engine is not deterministic under a fixed seed")
	}
}

func TestCloseAllFlushesPartials(t *testing.T) {
	e, be := newEngine(t, ctxNoEvasion())
	e.StoreRange(0, 0, 32) // half a line
	if len(be.rfos) != 0 {
		t.Fatal("partial line retired too early")
	}
	e.CloseAll()
	if len(be.rfos) != 1 {
		t.Fatalf("CloseAll did not retire the partial line: %d", len(be.rfos))
	}
}

func TestSetContextRecomputesEff(t *testing.T) {
	e, _ := newEngine(t, ctxNoEvasion())
	if e.Eff() != 0 {
		t.Fatalf("zero-pressure eff = %g", e.Eff())
	}
	e.SetContext(ctxFullEvasion())
	if e.Eff() < 0.9 {
		t.Fatalf("full-evasion eff = %g, want > 0.9", e.Eff())
	}
}

// TestRewindReplaysTheSameLines: a row stored from a configured engine,
// then rewound to the checkpoint taken before it and stored again into
// another backend, draws the same dice and retires the same lines with
// the same statistics. A rewind also drops an open line unretired, so a
// loop cut short leaves nothing behind for the next.
func TestRewindReplaysTheSameLines(t *testing.T) {
	ctx := Context{Pressure: 0.6, NodeFraction: 0.25, ActiveSockets: 1,
		Class: machine.ClassCopy, StoreStreams: 1, Eligible: true, PFOn: true}
	e, first := newEngine(t, ctx)
	e.Seed(99)
	row := func() {
		e.ConfigureStreams(1, nil)
		e.SetContext(ctx)
		for k := int64(0); k < 8; k++ {
			e.StoreRange(0, k*64*300+8, 64*200)
		}
		e.CloseAll()
	}
	cp := e.Checkpoint()
	row()
	stats := e.Stats()
	if stats.Claimed == 0 || stats.RFOs == 0 {
		t.Fatalf("stats %+v: want both claims and write-allocates, so the dice matter", stats)
	}
	second := &fakeBackend{}
	e.SetBackend(second)
	e.Rewind(cp)
	row()
	if e.Stats() != stats {
		t.Errorf("rewound replay stats %+v, first %+v", e.Stats(), stats)
	}
	if !slices.Equal(second.claims, first.claims) || !slices.Equal(second.rfos, first.rfos) || second.runs != first.runs {
		t.Errorf("rewound replay handed over %d claims, %d RFOs in %d runs; first %d, %d in %d",
			len(second.claims), len(second.rfos), second.runs, len(first.claims), len(first.rfos), first.runs)
	}

	cut := e.Checkpoint()
	e.StoreRange(0, 64*1000, 8)
	e.Rewind(cut)
	third := &fakeBackend{}
	e.SetBackend(third)
	e.CloseAll()
	if third.runs != 0 || e.Stats() != stats {
		t.Errorf("after a rewind CloseAll handed over %d runs, stats %+v: the open line survived", third.runs, e.Stats())
	}
}
