package bench

import (
	"math"
	"testing"
	"testing/quick"

	"cloversim/internal/machine"
)

func TestStoreSerialRatioIsTwo(t *testing.T) {
	// One core, no bandwidth pressure: every store write-allocates.
	r, err := RunStore(StoreOptions{Machine: machine.ICX8360Y(), Streams: 1, Cores: 1, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ratio()-2.0) > 0.01 {
		t.Fatalf("serial store ratio = %.3f, want 2.0", r.Ratio())
	}
}

func TestStoreNTSerialRatioIsOne(t *testing.T) {
	r, err := RunStore(StoreOptions{Machine: machine.ICX8360Y(), Streams: 1, NT: true, Cores: 1, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ratio()-1.0) > 0.01 {
		t.Fatalf("serial NT store ratio = %.3f, want 1.0", r.Ratio())
	}
}

// TestStoreICXFigure5Anchors checks the paper's headline numbers: ~1.06
// at a full socket, 1.20-1.25 at the full node for one stream; NT rises
// to 1.16-1.17.
func TestStoreICXFigure5Anchors(t *testing.T) {
	icx := machine.ICX8360Y()
	socket, err := RunStore(StoreOptions{Machine: icx, Streams: 1, Cores: 36, BytesPerStream: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if socket.Ratio() < 1.02 || socket.Ratio() > 1.09 {
		t.Errorf("full-socket ratio %.3f, paper says ~1.06", socket.Ratio())
	}
	node, _ := RunStore(StoreOptions{Machine: icx, Streams: 1, Cores: 72, BytesPerStream: 2 << 20})
	if node.Ratio() < 1.17 || node.Ratio() > 1.28 {
		t.Errorf("full-node ratio %.3f, paper says 1.20-1.25", node.Ratio())
	}
	nt, _ := RunStore(StoreOptions{Machine: icx, Streams: 1, NT: true, Cores: 72, BytesPerStream: 2 << 20})
	if nt.Ratio() < 1.13 || nt.Ratio() > 1.20 {
		t.Errorf("full-node NT ratio %.3f, paper says 1.16-1.17", nt.Ratio())
	}
}

// TestStoreStreamPenaltyICX: Fig. 5 shows SpecI2M effectiveness
// diminishing with the number of store streams on ICX.
func TestStoreStreamPenaltyICX(t *testing.T) {
	icx := machine.ICX8360Y()
	var prev float64
	for s := 1; s <= 3; s++ {
		r, err := RunStore(StoreOptions{Machine: icx, Streams: s, Cores: 18, BytesPerStream: 2 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if s > 1 && r.Ratio() < prev {
			t.Errorf("%d streams ratio %.3f below %d-stream %.3f", s, r.Ratio(), s-1, prev)
		}
		prev = r.Ratio()
	}
}

// TestStoreSPRKickIn: Fig. 10 — no SpecI2M benefit below ~18 cores on
// SPR, and only about half the WAs evaded at a full socket.
func TestStoreSPRKickIn(t *testing.T) {
	spr := machine.SPR8480()
	low, err := RunStore(StoreOptions{Machine: spr, Streams: 1, Cores: 15, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if low.Ratio() < 1.98 {
		t.Errorf("SPR at 15 cores evades already: ratio %.3f", low.Ratio())
	}
	sock, _ := RunStore(StoreOptions{Machine: spr, Streams: 1, Cores: 56, BytesPerStream: 1 << 20})
	if sock.Ratio() < 1.4 || sock.Ratio() > 1.6 {
		t.Errorf("SPR socket ratio %.3f, paper says ~1.5", sock.Ratio())
	}
	// No stream-count sensitivity on SPR (unlike ICX).
	s3, _ := RunStore(StoreOptions{Machine: spr, Streams: 3, Cores: 56, BytesPerStream: 1 << 20})
	if math.Abs(s3.Ratio()-sock.Ratio()) > 0.05 {
		t.Errorf("SPR stream sensitivity: 1 stream %.3f vs 3 streams %.3f", sock.Ratio(), s3.Ratio())
	}
}

// TestStoreSNCKickInFaster: Fig. 9 — with SNC on, domains are smaller
// and SpecI2M activates at fewer cores.
func TestStoreSNCKickInFaster(t *testing.T) {
	sncOn := machine.SPR8470SNCOn()
	sncOff := machine.SPR8470()
	on, err := RunStore(StoreOptions{Machine: sncOn, Streams: 1, Cores: 10, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunStore(StoreOptions{Machine: sncOff, Streams: 1, Cores: 10, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if on.Ratio() >= off.Ratio() {
		t.Errorf("SNC on at 10 cores (%.3f) should already evade vs off (%.3f)",
			on.Ratio(), off.Ratio())
	}
}

// TestStoreRatioBoundsProperty: the ratio is always within [1, 2+eps]
// for any core count, stream count and NT mode.
func TestStoreRatioBoundsProperty(t *testing.T) {
	icx := machine.ICX8360Y()
	f := func(cores, streams uint8, nt bool) bool {
		c := int(cores)%72 + 1
		s := int(streams)%3 + 1
		r, err := RunStore(StoreOptions{Machine: icx, Streams: s, NT: nt, Cores: c, BytesPerStream: 1 << 18})
		if err != nil {
			return false
		}
		return r.Ratio() >= 0.99 && r.Ratio() <= 2.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCopySerialVolumes(t *testing.T) {
	// One thread: 8B read + 8B WA read + 8B write per element (Fig. 6).
	r, err := RunCopy(CopyOptions{Machine: machine.ICX8360Y(), Cores: 1, Elems: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ReadPerIt()-16) > 0.2 {
		t.Errorf("serial copy read/it = %.2f, want 16", r.ReadPerIt())
	}
	if math.Abs(r.WritePerIt()-8) > 0.2 {
		t.Errorf("serial copy write/it = %.2f, want 8", r.WritePerIt())
	}
	if r.ItoMPerIt() > 0.01 {
		t.Errorf("serial copy claimed %.2f B/it", r.ItoMPerIt())
	}
}

func TestCopyEvasionAt17Threads(t *testing.T) {
	// Fig. 6: WAs almost fully evaded at 17 threads (one SNC domain).
	r, err := RunCopy(CopyOptions{Machine: machine.ICX8360Y(), Cores: 17, Elems: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadPerIt() > 8.5 {
		t.Errorf("17-thread copy read/it = %.2f, want ~8", r.ReadPerIt())
	}
	if r.ItoMPerIt() < 7 {
		t.Errorf("17-thread SpecI2M volume = %.2f B/it, want ~8", r.ItoMPerIt())
	}
}

// TestHaloCopyDimensionOrdering: Fig. 8 — longer inner dimensions give
// lower read/write ratios (216 worst, 1920 best), averaged over halos.
func TestHaloCopyDimensionOrdering(t *testing.T) {
	icx := machine.ICX8360Y()
	avg := func(dim int) float64 {
		var s float64
		for h := 0; h <= 17; h++ {
			r, err := RunCopy(CopyOptions{Machine: icx, Cores: 72, Elems: 1 << 17, Inner: dim, Halo: h})
			if err != nil {
				t.Fatal(err)
			}
			s += r.RWRatio()
		}
		return s / 18
	}
	a216, a530, a1920 := avg(216), avg(530), avg(1920)
	if !(a216 > a530 && a530 > a1920) {
		t.Errorf("halo-copy ordering violated: 216=%.3f 530=%.3f 1920=%.3f", a216, a530, a1920)
	}
	if a1920 > 1.10 {
		t.Errorf("1920 average ratio %.3f, paper says ~1.04", a1920)
	}
	if a216 < 1.15 {
		t.Errorf("216 average ratio %.3f, paper says ~1.35", a216)
	}
}

// TestHaloAlignedGapsBridge: halo sizes that are multiples of 8 elements
// (full-line holes) keep evasion alive (dips in Fig. 8).
func TestHaloAlignedGapsBridge(t *testing.T) {
	icx := machine.ICX8360Y()
	get := func(h int) float64 {
		r, err := RunCopy(CopyOptions{Machine: icx, Cores: 72, Elems: 1 << 17, Inner: 216, Halo: h})
		if err != nil {
			t.Fatal(err)
		}
		return r.RWRatio()
	}
	if h8, h3 := get(8), get(3); h8 >= h3 {
		t.Errorf("aligned halo 8 (%.3f) should beat misaligned halo 3 (%.3f)", h8, h3)
	}
	if h16, h5 := get(16), get(5); h16 >= h5 {
		t.Errorf("aligned halo 16 (%.3f) should beat misaligned halo 5 (%.3f)", h16, h5)
	}
}

// TestHaloPFOffWorse: disabling prefetchers drastically degrades
// evasion for strip-mined streams (Fig. 8 "PF off").
func TestHaloPFOffWorse(t *testing.T) {
	icx := machine.ICX8360Y()
	on, err := RunCopy(CopyOptions{Machine: icx, Cores: 72, Elems: 1 << 17, Inner: 1920, Halo: 8})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunCopy(CopyOptions{Machine: icx, Cores: 72, Elems: 1 << 17, Inner: 1920, Halo: 8, PFOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.RWRatio() <= on.RWRatio()+0.05 {
		t.Errorf("PF off ratio %.3f not clearly above PF on %.3f", off.RWRatio(), on.RWRatio())
	}
}

// TestHaloSPRShortRowsBetter: Fig. 11 — SPR handles short aligned rows
// better than ICX (shorter detector warm-up).
func TestHaloSPRShortRowsBetter(t *testing.T) {
	run := func(m *machine.Spec) float64 {
		r, err := RunCopy(CopyOptions{Machine: m, Cores: m.Cores(), Elems: 1 << 17, Inner: 216, Halo: 8})
		if err != nil {
			t.Fatal(err)
		}
		return r.RWRatio()
	}
	icx, spr := run(machine.ICX8360Y()), run(machine.SPR8480())
	if spr >= icx {
		t.Errorf("SPR aligned-short-row ratio %.3f should beat ICX %.3f", spr, icx)
	}
}

func TestNTCopyRWRatio(t *testing.T) {
	// NT destination: no write-allocates at all at low core counts.
	r, err := RunCopy(CopyOptions{Machine: machine.ICX8360Y(), Cores: 1, Elems: 1 << 18, NT: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.RWRatio()-1.0) > 0.02 {
		t.Errorf("serial NT copy R/W ratio = %.3f, want 1.0", r.RWRatio())
	}
}

func TestBenchValidation(t *testing.T) {
	if _, err := RunStore(StoreOptions{Streams: 1, Cores: 1}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := RunStore(StoreOptions{Machine: machine.ICX8360Y(), Cores: 100}); err == nil {
		t.Error("too many cores accepted")
	}
	if _, err := RunCopy(CopyOptions{Machine: machine.ICX8360Y(), Cores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	icx := machine.ICX8360Y()
	if _, err := RunStore(StoreOptions{Machine: icx, Cores: 1, BytesPerStream: -64}); err == nil {
		t.Error("negative store size accepted")
	}
	if _, err := RunStore(StoreOptions{Machine: icx, Cores: 1, BytesPerStream: 1<<20 + 4}); err == nil {
		t.Error("store size of a partial element accepted")
	}
	if _, err := RunCopy(CopyOptions{Machine: icx, Cores: 1, Elems: -5}); err == nil {
		t.Error("negative copy size accepted")
	}
	if _, err := RunKernel(KernelOptions{Machine: icx, Kernel: "copy", Cores: 1, ElemsPerStream: -5}); err == nil {
		t.Error("negative kernel size accepted")
	}
}

func TestVolumesAdd(t *testing.T) {
	var v Volumes
	v.Add(Volumes{Read: 10, Write: 5, ItoM: 2, NT: 1}, 3)
	if v.Read != 30 || v.Write != 15 || v.ItoM != 6 || v.NT != 3 {
		t.Fatalf("weighted add: %+v", v)
	}
}
