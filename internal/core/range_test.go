package core

import (
	"testing"

	"cloversim/internal/machine"
)

// storeWorkout drives one engine through the store shapes the traffic
// generators emit: long aligned rows, misaligned partial heads/tails,
// bridged halo gaps, NT streams, and mid-row interleaving across
// streams, with a context switch partway. It calls check after every
// StoreRange, SetContext and the closing CloseAll.
func storeWorkout(e *StoreEngine, ctx Context, nt bool, check func()) {
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
