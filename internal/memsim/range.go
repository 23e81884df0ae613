package memsim

import "fmt"

// AccessKind names the hierarchy operation AccessRange applies to each
// line of a run.
type AccessKind uint8

const (
	// AccessLoad is a demand load, which may trigger the prefetcher.
	AccessLoad AccessKind = iota
	// AccessRFO is a read-for-ownership (write-allocate): the line is
	// fetched and installed dirty.
	AccessRFO
	// AccessClaimI2M claims the line dirty at L3 without a memory read
	// (SpecI2M ItoM transaction).
	AccessClaimI2M
	// AccessClaimL2 claims the line dirty in the private L2 without a
	// memory read (A64FX cache-line zero). The write reaches memory via
	// the normal write-back path, and, unlike ItoM, the data is
	// immediately reusable from the private cache.
	AccessClaimL2
	// AccessWriteNT is a direct (write-combined) memory write.
	AccessWriteNT
	// AccessWriteNTReverted is an NT store demoted to a regular
	// write-allocate store (read plus eventual write-back).
	AccessWriteNTReverted
	// AccessWriteStreamed is ARM write-streaming mode: the detected
	// store stream goes straight to memory.
	AccessWriteStreamed
)

// AccessRange performs n accesses of one kind to the consecutive lines
// start..start+n-1, with exactly the cache state and Counts of n runs
// of one line in order. Per-access counters are batched, and the
// store-bypassing kinds touch no cache state at all. A line outside the simulated range
// (see New) is a caller bug and panics.
func (h *Hierarchy) AccessRange(start, n int64, kind AccessKind) {
	if n <= 0 {
		return
	}
	if start < 0 || start > h.lineLimit-n {
		panic(fmt.Sprintf("memsim: lines [%d, %d) outside the simulated range [0, %d)", start, start+n, h.lineLimit))
	}
	switch kind {
	case AccessLoad:
		h.c.Loads += n
		h.accessRange(start, n, false, true)
	case AccessRFO:
		h.c.RFOs += n
		h.accessRange(start, n, true, false)
	case AccessWriteNTReverted:
		h.c.NTReverted += n
		h.c.RFOs += n
		h.accessRange(start, n, true, false)
	case AccessClaimI2M:
		for line := start; line < start+n; line++ {
			h.claimI2M(line)
		}
	case AccessClaimL2:
		for line := start; line < start+n; line++ {
			h.claimL2(line)
		}
	case AccessWriteNT:
		h.c.NTLines += n
		h.c.MemWriteLines += n
	case AccessWriteStreamed:
		h.c.WSLines += n
		h.c.MemWriteLines += n
	}
}

// accessRange runs n demand accesses (loads, or RFOs when dirty) on
// consecutive lines. A miss fetches the line from the nearest level
// holding it, installing it into every level above; dirty evictions
// write back one level down. Only loads (allowPF) drive the prefetcher:
// store streams are handled by the write-allocate-evasion engine, and
// prefetching them would defeat ItoM claims (the hardware suppresses
// this likewise).
func (h *Hierarchy) accessRange(start, n int64, dirty, allowPF bool) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	allowPF = allowPF && h.pfOn
	for line := start; line < start+n; line++ {
		if l1.mayHold(line) && l1.find(line) {
			h.c.L1Hits++
			if dirty {
				l1.markDirty(line)
			}
			continue
		}
		if l2.mayHold(line) && l2.find(line) {
			h.c.L2Hits++
		} else {
			if l3.mayHold(line) && l3.find(line) {
				h.c.L3Hits++
			} else {
				h.c.MemReadLines++
				if allowPF {
					h.prefetch(line)
				}
				if _, d := l3.install(line, false); d {
					h.c.MemWriteLines++
				}
			}
			if ev, d := l2.install(line, false); d {
				h.writebackToL3(ev)
			}
		}
		if ev, d := l1.install(line, dirty); d {
			h.writebackToL2(ev)
		}
	}
}

// writebackToL2 handles a dirty eviction from L1.
func (h *Hierarchy) writebackToL2(line int64) {
	l2 := h.l2
	if l2.hit(line) {
		l2.markDirty(line)
		return
	}
	if ev, d := l2.install(line, true); d {
		h.writebackToL3(ev)
	}
}

// writebackToL3 handles a dirty eviction from L2.
func (h *Hierarchy) writebackToL3(line int64) {
	l3 := h.l3
	if l3.hit(line) {
		l3.markDirty(line)
		return
	}
	if _, d := l3.install(line, true); d {
		h.c.MemWriteLines++
	}
}

// prefetch runs the L2 streamer on a demand-load memory miss: it arms
// on a miss sequential to a previous miss and pulls the next
// pfDistance lines into L3.
func (h *Hierarchy) prefetch(line int64) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	armed := false
	for i := range h.pfSlots {
		if h.pfSlots[i] == line-1 || h.pfSlots[i] == line-2 {
			h.pfSlots[i] = line
			armed = true
			break
		}
	}
	if !armed {
		h.pfSlots[h.pfNext] = line
		h.pfNext = (h.pfNext + 1) % pfSlotCount
		return
	}
	// Candidates already cached anywhere are skipped (hit, with the
	// filter test spelled out so it inlines).
	for l := line + 1; l <= line+pfDistance; l++ {
		if (!l3.mayHold(l) || !l3.find(l)) &&
			(!l2.mayHold(l) || !l2.find(l)) &&
			(!l1.mayHold(l) || !l1.find(l)) {
			h.c.MemReadLines++
			h.c.PFLines++
			if _, d := l3.install(l, false); d {
				h.c.MemWriteLines++
			}
		}
	}
}

// claimI2M claims a line dirty at L3 without a memory read, dropping
// stale private copies so the dirty state lives at L3.
func (h *Hierarchy) claimI2M(line int64) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	h.c.ItoMLines++
	if l1.hit(line) {
		l1.drop(line)
	}
	if l2.hit(line) {
		l2.drop(line)
	}
	if l3.hit(line) {
		l3.markDirty(line)
		return
	}
	if _, d := l3.install(line, true); d {
		h.c.MemWriteLines++
	}
}

// claimL2 claims a line dirty in L2 without a memory read, dropping a
// stale L1 copy.
func (h *Hierarchy) claimL2(line int64) {
	l1, l2 := h.l1, h.l2
	h.c.ItoMLines++
	if l1.hit(line) {
		l1.drop(line)
	}
	if l2.hit(line) {
		l2.markDirty(line)
		return
	}
	if ev, d := l2.install(line, true); d {
		h.writebackToL3(ev)
	}
}
