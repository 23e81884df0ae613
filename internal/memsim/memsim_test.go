package memsim

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"cloversim/internal/machine"
)

func newH() *Hierarchy { return New(machine.ICX8360Y()) }

func TestColdLoadMissesToMemory(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	h.AccessRange(100, 1, AccessLoad)
	c := h.Counts()
	if c.MemReadLines != 1 || c.L1Hits != 0 {
		t.Fatalf("cold load: %+v", c)
	}
	h.AccessRange(100, 1, AccessLoad)
	c = h.Counts()
	if c.MemReadLines != 1 || c.L1Hits != 1 {
		t.Fatalf("warm load should hit L1: %+v", c)
	}
}

func TestCleanEvictionsCostNothing(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	// Stream far more lines than the hierarchy holds.
	for l := int64(0); l < 200000; l++ {
		h.AccessRange(l, 1, AccessLoad)
	}
	c := h.Counts()
	if c.MemReadLines != 200000 {
		t.Fatalf("streaming reads = %d, want 200000", c.MemReadLines)
	}
	if c.MemWriteLines != 0 {
		t.Fatalf("clean data wrote %d lines back", c.MemWriteLines)
	}
}

func TestDirtyLineWrittenBackExactlyOnce(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	const n = 100000
	for l := int64(0); l < n; l++ {
		h.AccessRange(l, 1, AccessRFO)
	}
	h.Flush()
	c := h.Counts()
	if c.MemReadLines != n {
		t.Fatalf("RFO reads = %d, want %d", c.MemReadLines, n)
	}
	if c.MemWriteLines != n {
		t.Fatalf("dirty write-backs = %d, want exactly %d", c.MemWriteLines, n)
	}
}

func TestClaimI2MSkipsTheRead(t *testing.T) {
	h := newH()
	const n = 50000
	for l := int64(0); l < n; l++ {
		h.AccessRange(l, 1, AccessClaimI2M)
	}
	h.Flush()
	c := h.Counts()
	if c.MemReadLines != 0 {
		t.Fatalf("ItoM claims read %d lines", c.MemReadLines)
	}
	if c.MemWriteLines != n || c.ItoMLines != n {
		t.Fatalf("claims: writes %d itom %d, want %d", c.MemWriteLines, c.ItoMLines, n)
	}
}

func TestWriteNT(t *testing.T) {
	h := newH()
	h.AccessRange(7, 1, AccessWriteNT)
	c := h.Counts()
	if c.MemWriteLines != 1 || c.MemReadLines != 0 || c.NTLines != 1 {
		t.Fatalf("NT write: %+v", c)
	}
	h.AccessRange(8, 1, AccessWriteNTReverted)
	c = h.Counts()
	if c.MemReadLines != 1 || c.NTReverted != 1 {
		t.Fatalf("NT revert: %+v", c)
	}
}

func TestLRUWithinSet(t *testing.T) {
	spec := machine.ICX8360Y()
	h := New(spec)
	h.SetPrefetch(false)
	l1sets := int64(spec.L1.Sets())
	// Fill one L1 set (12 ways) plus one more line mapping to it.
	for w := int64(0); w <= 12; w++ {
		h.AccessRange(w*l1sets, 1, AccessLoad) // same set, different tags
	}
	// The first line was LRU and must have been evicted from L1; it may
	// still hit in L2.
	before := h.Counts()
	h.AccessRange(0, 1, AccessLoad)
	after := h.Counts()
	if after.L1Hits != before.L1Hits {
		t.Fatal("LRU victim still resident in L1")
	}
	if after.L2Hits != before.L2Hits+1 {
		t.Fatal("victim should have been found in L2")
	}
}

// TestLayerConditionEmerges: a 2-row stencil read pattern over rows that
// fit in cache loads each line from memory exactly once.
func TestLayerConditionEmerges(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	rowLines := int64(1920 / 8) // 1920 doubles per row
	rows := int64(64)
	// Sweep: per row k, read rows k and k+1 (like am04's mass_flux_x).
	for k := int64(0); k < rows; k++ {
		for _, dk := range []int64{0, 1} {
			base := (k + dk) * rowLines
			for j := int64(0); j < rowLines; j++ {
				h.AccessRange(base+j, 1, AccessLoad)
			}
		}
	}
	c := h.Counts()
	want := (rows + 1) * rowLines // every line exactly once
	if c.MemReadLines != want {
		t.Fatalf("LC reads = %d, want %d (LC satisfied => one miss per line)",
			c.MemReadLines, want)
	}
}

// TestLayerConditionBreaks: rows far larger than the hierarchy defeat
// inter-row reuse and double the read traffic of the same pattern.
func TestLayerConditionBreaks(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	// Row of 1 M doubles = 8 MB >> L1+L2+L3slice (~2.8 MB).
	rowLines := int64(1 << 20 / 8 * 8 / 8) // 131072 lines = 8 MiB
	rows := int64(4)
	for k := int64(0); k < rows; k++ {
		for _, dk := range []int64{0, 1} {
			base := (k + dk) * rowLines
			for j := int64(0); j < rowLines; j++ {
				h.AccessRange(base+j, 1, AccessLoad)
			}
		}
	}
	c := h.Counts()
	min := 2 * rows * rowLines * 95 / 100
	if c.MemReadLines < min {
		t.Fatalf("broken LC reads = %d, want near %d", c.MemReadLines, 2*rows*rowLines)
	}
}

func TestPrefetcherCoversStreams(t *testing.T) {
	h := newH()
	// A long sequential read stream: the streamer must not change net
	// volume (every line is read exactly once, demand or prefetch).
	const n = 50000
	for l := int64(0); l < n; l++ {
		h.AccessRange(l, 1, AccessLoad)
	}
	c := h.Counts()
	if c.PFLines == 0 {
		t.Fatal("stream prefetcher never fired")
	}
	slack := int64(pfDistance + 1)
	if c.MemReadLines < n || c.MemReadLines > n+slack*pfSlotCount {
		t.Fatalf("prefetched stream reads = %d, want ~%d", c.MemReadLines, n)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	h := newH()
	h.SetPrefetch(false)
	for l := int64(0); l < 1000; l++ {
		h.AccessRange(l, 1, AccessLoad)
	}
	if h.Counts().PFLines != 0 {
		t.Fatal("prefetcher fired while disabled")
	}
}

func TestFlushIdempotent(t *testing.T) {
	h := newH()
	h.AccessRange(1, 1, AccessRFO)
	h.Flush()
	w := h.Counts().MemWriteLines
	h.Flush()
	if h.Counts().MemWriteLines != w {
		t.Fatal("second flush wrote data again")
	}
	if h.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
}

func TestInvalidateDropsWithoutTraffic(t *testing.T) {
	h := newH()
	h.AccessRange(1, 1, AccessRFO)
	h.Invalidate()
	if h.Counts().MemWriteLines != 0 {
		t.Fatal("invalidate must not write back")
	}
	if h.DirtyLines() != 0 {
		t.Fatal("dirty lines survived invalidate")
	}
}

func TestCountsArithmetic(t *testing.T) {
	a := Counts{MemReadLines: 10, MemWriteLines: 4, ItoMLines: 2}
	b := Counts{MemReadLines: 3, MemWriteLines: 1, ItoMLines: 1}
	d := a.Sub(b)
	if d.MemReadLines != 7 || d.MemWriteLines != 3 || d.ItoMLines != 1 {
		t.Fatalf("Sub: %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Fatalf("Add(Sub) != identity: %+v", s)
	}
	if a.ReadBytes() != 640 || a.WriteBytes() != 256 || a.TotalBytes() != 896 {
		t.Fatal("byte conversions wrong")
	}
}

// Property: memory traffic is non-negative and reads never exceed
// accesses for arbitrary random access sequences; flush leaves no dirty
// lines.
func TestRandomAccessProperty(t *testing.T) {
	f := func(seq []uint16, writes []bool) bool {
		h := newH()
		h.SetPrefetch(false)
		nw := 0
		for i, s := range seq {
			line := int64(s % 4096)
			if i < len(writes) && writes[i] {
				h.AccessRange(line, 1, AccessRFO)
				nw++
			} else {
				h.AccessRange(line, 1, AccessLoad)
			}
		}
		h.Flush()
		c := h.Counts()
		return c.MemReadLines >= 0 &&
			c.MemReadLines <= int64(len(seq)) &&
			c.MemWriteLines <= int64(nw) &&
			h.DirtyLines() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyFootprint caps the bytes New allocates per machine preset
// at the figures of the recency-list levels (measured with Go 1.24 on
// amd64: an 8-byte entry per way, a presence filter and an entry count
// per set), so the per-set bookkeeping cannot grow the hierarchy that
// every concurrent simulation holds.
func TestHierarchyFootprint(t *testing.T) {
	ceiling := map[string]uint64{
		"icx":       416768,
		"icx-snc0":  416768,
		"spr8470":   580608,
		"spr8470+s": 580608,
		"spr8480":   580608,
		"clx":       365568,
		"n1":        212992,
		"a64fx":     159744,
	}
	for _, spec := range machine.AllPresets() {
		want, ok := ceiling[spec.Name]
		if !ok {
			t.Errorf("%s: no recorded footprint ceiling", spec.Name)
			continue
		}
		// Anything else the process allocates meanwhile only adds to the
		// delta, so the smallest of a few measurements is New's own.
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h := New(spec)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(h)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > want {
			t.Errorf("%s: New allocates %d bytes, more than the %d-byte ceiling", spec.Name, got, want)
		}
	}
}

// TestConflictMisses: more lines mapping to one set than its
// associativity thrash even though the total footprint is tiny.
func TestConflictMisses(t *testing.T) {
	spec := machine.ICX8360Y()
	h := New(spec)
	h.SetPrefetch(false)
	l1Sets := int64(64) // 48K/12/64
	l2Sets := int64(1024)
	l3Sets := int64(2048)
	_ = l2Sets
	// 40 lines all in L1 set 0 and (since 2048 | multiples) also
	// conflicting in L2/L3 sets: stride by l3Sets to hit the same set in
	// every level (l3Sets is a multiple of l1Sets).
	stride := l3Sets
	if stride%l1Sets != 0 {
		t.Fatal("test setup: stride must alias in L1 too")
	}
	const n = 40
	rounds := 10
	for r := 0; r < rounds; r++ {
		for i := int64(0); i < n; i++ {
			h.AccessRange(i*stride, 1, AccessLoad)
		}
	}
	c := h.Counts()
	// 40 ways needed; L1 has 12, L2 20, L3 slice 12 — every level
	// thrashes, so most accesses go to memory despite a 2.5 KB footprint.
	if c.MemReadLines < int64(rounds*n)*7/10 {
		t.Fatalf("conflict thrashing expected: %d memory reads of %d accesses",
			c.MemReadLines, rounds*n)
	}
}
