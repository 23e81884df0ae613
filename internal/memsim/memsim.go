// Package memsim provides a cache-line-accurate simulation of one core's
// view of the memory hierarchy: private L1 and L2 caches, a per-core L3
// slice, hardware prefetcher models, and a memory controller that counts
// read and write cache-line transfers (the CAS_COUNT_RD / CAS_COUNT_WR
// analogue of the paper's LIKWID measurements).
//
// The hierarchy is write-back, write-allocate with LRU replacement.
// Layer conditions (Sec. II-C), partial-line write-allocates and prefetch
// overfetch are emergent properties of the simulation, not parameters.
//
// Hierarchy implements core.Backend and core.RangeBackend, so the
// SpecI2M store engine of internal/core drives it directly.
//
// There is one simulation path: AccessRange replays a run of
// consecutive same-kind accesses (range.go), and the per-line methods
// are runs of one line. Its per-set bookkeeping (level.go) accelerates
// the search only — presence filters, free-way and dirty masks, victim
// queues, way prediction — and never changes which way a line lands in.
// The differential and fuzz suites in range_test.go check it
// bit-for-bit against the plain per-line oracle in oracle_test.go.
package memsim

import (
	"fmt"

	"cloversim/internal/machine"
)

// Counts is a snapshot of the memory-controller and hierarchy event
// counters. All volumes are in cache lines; multiply by 64 for bytes.
type Counts struct {
	MemReadLines  int64 // lines read from memory (demand + RFO + prefetch)
	MemWriteLines int64 // lines written to memory (write-backs + NT)
	ItoMLines     int64 // SpecI2M claims (TOR_INSERTS_IA_ITOM analogue)
	NTLines       int64 // non-temporal full/partial line writes
	NTReverted    int64 // NT stores reverted to regular write-allocates
	WSLines       int64 // ARM write-streaming direct writes
	PFLines       int64 // memory reads initiated by the prefetcher
	L1Hits        int64
	L2Hits        int64
	L3Hits        int64
	Loads         int64 // demand load accesses
	RFOs          int64 // write-allocate accesses
}

// Sub returns c - o, counter-wise.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines - o.MemReadLines,
		MemWriteLines: c.MemWriteLines - o.MemWriteLines,
		ItoMLines:     c.ItoMLines - o.ItoMLines,
		NTLines:       c.NTLines - o.NTLines,
		NTReverted:    c.NTReverted - o.NTReverted,
		WSLines:       c.WSLines - o.WSLines,
		PFLines:       c.PFLines - o.PFLines,
		L1Hits:        c.L1Hits - o.L1Hits,
		L2Hits:        c.L2Hits - o.L2Hits,
		L3Hits:        c.L3Hits - o.L3Hits,
		Loads:         c.Loads - o.Loads,
		RFOs:          c.RFOs - o.RFOs,
	}
}

// Add returns c + o, counter-wise.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines + o.MemReadLines,
		MemWriteLines: c.MemWriteLines + o.MemWriteLines,
		ItoMLines:     c.ItoMLines + o.ItoMLines,
		NTLines:       c.NTLines + o.NTLines,
		NTReverted:    c.NTReverted + o.NTReverted,
		WSLines:       c.WSLines + o.WSLines,
		PFLines:       c.PFLines + o.PFLines,
		L1Hits:        c.L1Hits + o.L1Hits,
		L2Hits:        c.L2Hits + o.L2Hits,
		L3Hits:        c.L3Hits + o.L3Hits,
		Loads:         c.Loads + o.Loads,
		RFOs:          c.RFOs + o.RFOs,
	}
}

// ReadBytes returns the memory read volume in bytes.
func (c Counts) ReadBytes() int64 { return c.MemReadLines * 64 }

// WriteBytes returns the memory write volume in bytes.
func (c Counts) WriteBytes() int64 { return c.MemWriteLines * 64 }

// TotalBytes returns the total memory data volume in bytes.
func (c Counts) TotalBytes() int64 { return (c.MemReadLines + c.MemWriteLines) * 64 }

// Hierarchy is one core's cache hierarchy plus the memory controller
// counters.
type Hierarchy struct {
	l1, l2, l3 *level
	c          Counts
	spec       *machine.Spec

	pfOn       bool
	pfSlots    [pfSlotCount]int64 // last miss line per detected stream
	pfNext     int
	pfDist     int64
	adjacentOn bool

	lineLimit int64 // exclusive bound on the lines AccessRange accepts
}

const pfSlotCount = 16

// New creates a hierarchy for the machine spec with prefetchers in their
// default (spec) state. It panics on a cache level of more than 32 ways.
// The hierarchy simulates lines from 0 up to a bound set by its smallest
// cache (ways hold 32-bit keys of the bits above the set index): 2^38
// lines, 16 TiB of addresses, for a 64-set L1.
func New(spec *machine.Spec) *Hierarchy {
	h := &Hierarchy{
		l1:         newLevel(spec.L1),
		l2:         newLevel(spec.L2),
		l3:         newLevel(spec.L3Slice()),
		spec:       spec,
		pfOn:       spec.PF.StreamEnabled,
		pfDist:     int64(spec.PF.StreamDistance),
		adjacentOn: spec.PF.AdjacentEnabled,
	}
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
	// Leave room for the prefetchers, which reach past the demand line.
	h.lineLimit = min(h.l1.maxLine(), h.l2.maxLine(), h.l3.maxLine()) - h.pfDist - 2
	return h
}

// SetPrefetch enables or disables the hardware prefetcher models
// (likwid-features analogue).
func (h *Hierarchy) SetPrefetch(on bool) {
	h.pfOn = on && h.spec.PF.StreamEnabled
	h.adjacentOn = on && h.spec.PF.AdjacentEnabled
}

// PrefetchOn reports whether the stream prefetcher is active.
func (h *Hierarchy) PrefetchOn() bool { return h.pfOn }

// Counts returns a snapshot of all counters.
func (h *Hierarchy) Counts() Counts { return h.c }

// Load implements core.Backend: a demand load, which may trigger the
// prefetchers.
func (h *Hierarchy) Load(line int64) { h.AccessRange(line, 1, AccessLoad) }

// RFO implements core.Backend: a read-for-ownership (write-allocate);
// the line is fetched and installed dirty.
func (h *Hierarchy) RFO(line int64) { h.AccessRange(line, 1, AccessRFO) }

// ClaimI2M implements core.Backend: the line is claimed dirty at L3
// without a memory read (SpecI2M ItoM transaction).
func (h *Hierarchy) ClaimI2M(line int64) { h.AccessRange(line, 1, AccessClaimI2M) }

// ClaimL2 implements core.Backend: the line is claimed dirty in the
// private L2 without a memory read (A64FX cache-line zero). The write
// reaches memory via the normal write-back path, and — unlike ItoM — the
// data is immediately reusable from the private cache.
func (h *Hierarchy) ClaimL2(line int64) { h.AccessRange(line, 1, AccessClaimL2) }

// WriteStreamed implements core.Backend: ARM write-streaming mode sends
// the detected store stream straight to memory.
func (h *Hierarchy) WriteStreamed(line int64) { h.AccessRange(line, 1, AccessWriteStreamed) }

// WriteNT implements core.Backend: a direct (write-combined) memory write.
func (h *Hierarchy) WriteNT(line int64) { h.AccessRange(line, 1, AccessWriteNT) }

// WriteNTReverted implements core.Backend: the NT store was demoted to a
// regular write-allocate store (read + eventual write-back).
func (h *Hierarchy) WriteNTReverted(line int64) { h.AccessRange(line, 1, AccessWriteNTReverted) }

// Flush writes back every dirty line and invalidates the hierarchy,
// counting the write-backs. Use at region boundaries when residual dirty
// state matters (small working sets).
func (h *Hierarchy) Flush() {
	for _, l := range [...]*level{h.l1, h.l2, h.l3} {
		h.c.MemWriteLines += l.reset()
	}
	h.resetPrefetch()
}

// Invalidate drops all cached state without counting write-backs.
func (h *Hierarchy) Invalidate() {
	for _, l := range [...]*level{h.l1, h.l2, h.l3} {
		l.reset()
	}
	h.resetPrefetch()
}

func (h *Hierarchy) resetPrefetch() {
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
}

// DirtyLines counts dirty lines currently cached (for tests).
func (h *Hierarchy) DirtyLines() int {
	return h.l1.dirtyLines() + h.l2.dirtyLines() + h.l3.dirtyLines()
}

// String summarizes the hierarchy geometry.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1 %d sets x%d | L2 %d sets x%d | L3slice %d sets x%d",
		h.l1.sets, h.l1.ways, h.l2.sets, h.l2.ways, h.l3.sets, h.l3.ways)
}
