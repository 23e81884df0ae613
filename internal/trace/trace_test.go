package trace

import (
	"math"
	"testing"
	"testing/quick"

	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// mkExec is the one active core of an ICX node with the prefetchers
// off; nt turns its NT store mode on.
func mkExec(nt bool) *Executor {
	return Node{Spec: machine.ICX8360Y(), Active: 1, NTStores: nt}.Core(0)
}

func TestArenaAlignment(t *testing.T) {
	ar := NewArena(true)
	for i := 0; i < 5; i++ {
		a := ar.Alloc("x", 0, 99, 0, 9)
		if a.Base%64 != 0 {
			t.Fatalf("aligned arena produced base %d", a.Base)
		}
	}
	un := NewArena(false)
	a := un.Alloc("y", 0, 99, 0, 9)
	if a.Base%64 == 0 {
		t.Fatalf("unaligned arena produced 64-byte-aligned base %d", a.Base)
	}
}

func TestArrayAddressing(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("f", -2, 10, -1, 5)
	if a.RowElems() != 13 {
		t.Fatalf("row elems = %d, want 13", a.RowElems())
	}
	if a.Addr(-2, -1) != a.Base {
		t.Fatal("origin address wrong")
	}
	if a.Addr(-1, -1)-a.Addr(-2, -1) != 8 {
		t.Fatal("j stride wrong")
	}
	if a.Addr(-2, 0)-a.Addr(-2, -1) != 13*8 {
		t.Fatal("k stride wrong")
	}
	if a.SizeBytes() != 13*7*8 {
		t.Fatalf("size = %d", a.SizeBytes())
	}
}

func TestArenaNoOverlap(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 1023, 0, 63)
	b := ar.Alloc("b", 0, 1023, 0, 63)
	if b.Base < a.Base+a.SizeBytes() {
		t.Fatalf("arrays overlap: a ends %d, b starts %d", a.Base+a.SizeBytes(), b.Base)
	}
}

// TestStreamingReadVolume: a pure read loop transfers exactly the line
// span of each row once when LC is satisfied.
func TestStreamingReadVolume(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 1023, 0, 127)
	loop := &Loop{
		Name:  "read",
		Reads: []Access{{A: a, DJ: 0, DK: 0}},
	}
	x := mkExec(false)
	c := x.Run(loop, Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 127})
	want := int64(1024 / 8 * 128)
	if c.MemReadLines != want {
		t.Fatalf("read lines = %d, want %d", c.MemReadLines, want)
	}
	if c.MemWriteLines != 0 {
		t.Fatalf("pure reads wrote %d lines", c.MemWriteLines)
	}
}

// TestStencilLayerCondition: the canonical am04 pattern reads each
// mass_flux line once (LC satisfied) and write-allocates the target.
func TestStencilLayerCondition(t *testing.T) {
	ar := NewArena(true)
	mf := ar.Alloc("mf", 0, 2047, 0, 127)
	nf := ar.Alloc("nf", 0, 2047, 0, 127)
	loop := &Loop{
		Name: "am04like",
		Reads: []Access{
			{A: mf, DJ: 0, DK: -1}, {A: mf, DJ: 0, DK: 0},
			{A: mf, DJ: 1, DK: -1}, {A: mf, DJ: 1, DK: 0},
		},
		Writes:     []Write{{A: nf}},
		FlopsPerIt: 4,
	}
	x := mkExec(false)
	b := Bounds{JLo: 0, JHi: 2046, KLo: 1, KHi: 126}
	c := x.Run(loop, b)
	bpi := float64(c.TotalBytes()) / float64(b.Iterations())
	// LCF + WA: 8 (read) + 8 (WA) + 8 (write) = 24 byte/it.
	if bpi < 23.5 || bpi > 25.0 {
		t.Fatalf("am04-like balance = %.2f byte/it, want ~24", bpi)
	}
}

// TestUpdateStreamNoWA: read-modify-write streams must not produce
// write-allocate reads beyond the explicit load.
func TestUpdateStreamNoWA(t *testing.T) {
	ar := NewArena(true)
	v := ar.Alloc("v", 0, 2047, 0, 63)
	loop := &Loop{
		Name:   "upd",
		Reads:  []Access{{A: v, DJ: 0, DK: 0}},
		Writes: []Write{{A: v, Update: true}},
	}
	x := mkExec(false)
	b := Bounds{JLo: 0, JHi: 2047, KLo: 0, KHi: 63}
	c := x.Run(loop, b)
	lines := int64(2048 / 8 * 64)
	if c.MemReadLines != lines {
		t.Fatalf("update reads = %d, want %d", c.MemReadLines, lines)
	}
	if c.MemWriteLines != lines {
		t.Fatalf("update write-backs = %d, want %d", c.MemWriteLines, lines)
	}
}

// TestNTStoreStream: with NT mode on, the flagged stream bypasses WAs
// entirely at low core counts.
func TestNTStoreStream(t *testing.T) {
	ar := NewArena(true)
	src := ar.Alloc("src", 0, 2047, 0, 63)
	dst := ar.Alloc("dst", 0, 2047, 0, 63)
	loop := &Loop{
		Name:   "ntcopy",
		Reads:  []Access{{A: src, DJ: 0, DK: 0}},
		Writes: []Write{{A: dst, NT: true}},
	}
	x := mkExec(true)
	b := Bounds{JLo: 0, JHi: 2047, KLo: 0, KHi: 63}
	c := x.Run(loop, b)
	lines := int64(2048 / 8 * 64)
	if c.NTLines != lines {
		t.Fatalf("NT lines = %d, want %d", c.NTLines, lines)
	}
	if c.MemReadLines != lines { // only the source
		t.Fatalf("reads = %d, want %d", c.MemReadLines, lines)
	}
}

// TestNTOnlyOneStream: the compiler alignment constraint allows NT on at
// most one write stream per loop.
func TestNTOnlyOneStream(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 511, 0, 31)
	b := ar.Alloc("b", 0, 511, 0, 31)
	loop := &Loop{
		Name:   "2w",
		Writes: []Write{{A: a, NT: true}, {A: b, NT: true}},
	}
	x := mkExec(true)
	c := x.Run(loop, Bounds{JLo: 0, JHi: 511, KLo: 0, KHi: 31})
	lines := int64(512 / 8 * 32)
	if c.NTLines != lines {
		t.Fatalf("NT lines = %d, want %d (one stream only)", c.NTLines, lines)
	}
	// Second stream write-allocates.
	if c.MemReadLines != lines {
		t.Fatalf("WA reads = %d, want %d", c.MemReadLines, lines)
	}
}

func TestCountHelpers(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 99, 0, 9)
	b := ar.Alloc("b", 0, 99, 0, 9)
	loop := &Loop{
		Name: "counts",
		Reads: []Access{
			{A: a, DJ: 0, DK: -1}, {A: a, DJ: 1, DK: -1}, {A: a, DJ: 0, DK: 0},
			{A: b, DJ: 0, DK: 0},
		},
		Writes: []Write{{A: b, Update: true}, {A: a, DJ: 0, DK: 0}},
	}
	if got := loop.CountLCF(); got != 2 {
		t.Errorf("LCF = %d, want 2 (distinct arrays)", got)
	}
	if got := loop.CountLCB(); got != 3 {
		t.Errorf("LCB = %d, want 3 (distinct array-row pairs)", got)
	}
	wr, upd := loop.CountWrites()
	if wr != 2 || upd != 1 {
		t.Errorf("writes = %d/%d, want 2/1", wr, upd)
	}
	if err := loop.Validate(); err != nil {
		t.Error(err)
	}
	if err := (&Loop{Name: "empty"}).Validate(); err == nil {
		t.Error("empty loop validated")
	}
}

func TestClassDerivation(t *testing.T) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 9, 0, 9)
	b := ar.Alloc("b", 0, 9, 0, 9)
	pure := &Loop{Writes: []Write{{A: a}}}
	if pure.Class() != machine.ClassPureStore {
		t.Error("store-only loop misclassified")
	}
	cp := &Loop{Reads: []Access{{A: b}}, Writes: []Write{{A: a}}}
	if cp.Class() != machine.ClassCopy {
		t.Error("copy loop misclassified")
	}
	st := &Loop{Reads: []Access{{A: b, DK: -1}, {A: b, DK: 0}, {A: b, DK: 1}}, Writes: []Write{{A: a}}}
	if st.Class() != machine.ClassStencil {
		t.Error("stencil loop misclassified")
	}
}

// TestBoundsIterations property: iteration count is positive and
// multiplicative.
func TestBoundsIterationsProperty(t *testing.T) {
	f := func(w, h uint8) bool {
		b := Bounds{JLo: 1, JHi: 1 + int(w%100), KLo: -3, KHi: -3 + int(h%50)}
		return b.Iterations() == int64(w%100+1)*int64(h%50+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunDeterminism: identical runs produce identical counters.
func TestRunDeterminism(t *testing.T) {
	run := func() int64 {
		ar := NewArena(true)
		src := ar.Alloc("s", 0, 1023, 0, 63)
		dst := ar.Alloc("d", 0, 1023, 0, 63)
		loop := &Loop{
			Name:     "det",
			Reads:    []Access{{A: src, DJ: 0, DK: 0}},
			Writes:   []Write{{A: dst}},
			Eligible: true,
		}
		x := Node{Spec: machine.ICX8360Y(), Active: 36, PFOn: true, Seed: 7}.Core(0)
		c := x.Run(loop, Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 63})
		return c.MemReadLines*1000000 + c.MemWriteLines
	}
	if run() != run() {
		t.Fatal("trace replay is not deterministic")
	}
}

// TestRunMarked: repeated replays of a serial copy each return their
// own delta; summed over three calls, the copy moves 24 B per iteration
// with write allocate (16 read + 8 write).
func TestRunMarked(t *testing.T) {
	ar := NewArena(true)
	src := ar.Alloc("src", 0, 1023, 0, 31)
	dst := ar.Alloc("dst", 0, 1023, 0, 31)
	loop := &Loop{
		Name:       "copyk",
		Reads:      []Access{{A: src, DJ: 0, DK: 0}},
		Writes:     []Write{{A: dst}},
		FlopsPerIt: 1,
	}
	x := mkExec(false)
	b := Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 31}
	var total memsim.Counts
	for i := 0; i < 3; i++ {
		total = total.Add(x.Run(loop, b))
	}
	iters := float64(3 * b.Iterations())
	if bpi := float64(total.TotalBytes()) / iters; math.Abs(bpi-24) > 1 {
		t.Fatalf("copy balance %.2f, want ~24", bpi)
	}
	if rpi := float64(total.ReadBytes()) / iters; math.Abs(rpi-16) > 1 {
		t.Errorf("copy read balance %.2f, want ~16", rpi)
	}
	if wpi := float64(total.WriteBytes()) / iters; math.Abs(wpi-8) > 1 {
		t.Errorf("copy write balance %.2f, want ~8", wpi)
	}
}
