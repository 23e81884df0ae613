package memsim

import (
	"testing"

	"cloversim/internal/machine"
)

// Benchmarks for the cache-hierarchy hot operations that dominate
// every traffic study: loads, RFOs, ItoM claims and NT writes, one line
// per AccessRange call.
//
//	go test -bench BenchmarkHierarchy ./internal/memsim

const benchLines = 1 << 14 // 1 MiB of cache lines: spills L1/L2, busy L3

func benchHierarchy() *Hierarchy { return New(machine.ICX8360Y()) }

func BenchmarkHierarchyLoad(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AccessRange(int64(i%benchLines), 1, AccessLoad)
	}
	if h.Counts().MemReadLines == 0 {
		b.Fatal("no memory traffic simulated")
	}
}

func BenchmarkHierarchyRFO(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AccessRange(int64(i%benchLines), 1, AccessRFO)
	}
}

func BenchmarkHierarchyClaimI2M(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AccessRange(int64(i%benchLines), 1, AccessClaimI2M)
	}
}

func BenchmarkHierarchyWriteNT(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AccessRange(int64(i%benchLines), 1, AccessWriteNT)
	}
}

// BenchmarkHierarchyStencilMix approximates a stencil loop's access
// pattern: two streamed reads plus one written stream per iteration.
func BenchmarkHierarchyStencilMix(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := int64(i % benchLines)
		h.AccessRange(line, 1, AccessLoad)
		h.AccessRange(line+benchLines, 1, AccessLoad)
		h.AccessRange(line+2*benchLines, 1, AccessRFO)
	}
}

// Batched-path benchmarks: the same access streams as the one-line
// benchmarks above, replayed through AccessRange in spans of rangeLen
// lines. Compare e.g. HierarchyLoad vs HierarchyLoadRange (both report
// ns per simulated line access):
//
//	go test -bench 'BenchmarkHierarchy(Load|RFO)' ./internal/memsim
const rangeLen = 256

func benchRange(b *testing.B, kind AccessKind) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i += rangeLen {
		h.AccessRange(int64(i%benchLines), rangeLen, kind)
	}
}

func BenchmarkHierarchyLoadRange(b *testing.B) {
	benchRange(b, AccessLoad)
}

func BenchmarkHierarchyRFORange(b *testing.B) {
	benchRange(b, AccessRFO)
}

func BenchmarkHierarchyClaimI2MRange(b *testing.B) {
	benchRange(b, AccessClaimI2M)
}

func BenchmarkHierarchyWriteNTRange(b *testing.B) {
	benchRange(b, AccessWriteNT)
}

// BenchmarkHierarchyStencilMixRange is BenchmarkHierarchyStencilMix on
// the batched API: two read streams and one written stream per span.
func BenchmarkHierarchyStencilMixRange(b *testing.B) {
	h := benchHierarchy()
	b.ReportAllocs()
	for i := 0; i < b.N; i += rangeLen {
		line := int64(i % benchLines)
		h.AccessRange(line, rangeLen, AccessLoad)
		h.AccessRange(line+benchLines, rangeLen, AccessLoad)
		h.AccessRange(line+2*benchLines, rangeLen, AccessRFO)
	}
}

func BenchmarkHierarchyFlush(b *testing.B) {
	h := benchHierarchy()
	for i := int64(0); i < benchLines; i++ {
		h.AccessRange(i, 1, AccessRFO)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Flush()
	}
}
