package memsim

import (
	"testing"

	"cloversim/internal/machine"
)

// TestAdjacentLinePrefetch: with the adjacent-cache-line prefetcher
// enabled, a miss also fetches the buddy line (effectively doubling the
// line size, Sec. V-C).
func TestAdjacentLinePrefetch(t *testing.T) {
	spec := machine.ICX8360Y()
	spec.PF.AdjacentEnabled = true
	h := New(spec)

	h.AccessRange(100, 1, AccessLoad) // even line: buddy is 101
	c := h.Counts()
	if c.MemReadLines != 2 {
		t.Fatalf("adjacent PF reads = %d, want 2 (line + buddy)", c.MemReadLines)
	}
	before := c
	h.AccessRange(101, 1, AccessLoad) // must now hit (the buddy was prefetched into L3)
	c = h.Counts()
	if c.MemReadLines != before.MemReadLines {
		t.Fatal("buddy line was not resident")
	}
	if c.L3Hits != before.L3Hits+1 {
		t.Fatal("buddy should hit in L3")
	}
}

// TestAdjacentPFIncreasesStridedTraffic: strided access (one line used
// out of every two) doubles memory traffic with the adjacent prefetcher.
func TestAdjacentPFIncreasesStridedTraffic(t *testing.T) {
	on := machine.ICX8360Y()
	on.PF.AdjacentEnabled = true
	on.PF.StreamEnabled = false
	hOn := New(on)

	off := machine.ICX8360Y()
	off.PF.StreamEnabled = false
	hOff := New(off)

	for l := int64(0); l < 4000; l += 2 {
		hOn.AccessRange(l, 1, AccessLoad)
		hOff.AccessRange(l, 1, AccessLoad)
	}
	rOn, rOff := hOn.Counts().MemReadLines, hOff.Counts().MemReadLines
	if rOff != 2000 {
		t.Fatalf("baseline strided reads = %d", rOff)
	}
	if rOn < 3900 {
		t.Fatalf("adjacent PF strided reads = %d, want ~4000", rOn)
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
