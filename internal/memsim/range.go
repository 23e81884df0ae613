package memsim

import "fmt"

// AccessKind names one per-line hierarchy operation for batched replay.
// The kinds mirror the core.Backend methods one-to-one.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessRFO
	AccessClaimI2M
	AccessClaimL2
	AccessWriteNT
	AccessWriteNTReverted
	AccessWriteStreamed
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessRFO:
		return "rfo"
	case AccessClaimI2M:
		return "claim-i2m"
	case AccessClaimL2:
		return "claim-l2"
	case AccessWriteNT:
		return "write-nt"
	case AccessWriteNTReverted:
		return "write-nt-reverted"
	case AccessWriteStreamed:
		return "write-streamed"
	}
	return "unknown"
}

// AccessRange performs n accesses of one kind to the consecutive lines
// start..start+n-1, with exactly the cache state and Counts of n
// per-line calls in order (the per-line methods are AccessRange runs of
// one line). Per-access counters are batched, and the store-bypassing
// kinds touch no cache state at all. A line outside the simulated range
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

// RFORange implements core.RangeBackend.
func (h *Hierarchy) RFORange(start, n int64) { h.AccessRange(start, n, AccessRFO) }

// ClaimI2MRange implements core.RangeBackend.
func (h *Hierarchy) ClaimI2MRange(start, n int64) { h.AccessRange(start, n, AccessClaimI2M) }

// ClaimL2Range implements core.RangeBackend.
func (h *Hierarchy) ClaimL2Range(start, n int64) { h.AccessRange(start, n, AccessClaimL2) }

// WriteStreamedRange implements core.RangeBackend.
func (h *Hierarchy) WriteStreamedRange(start, n int64) { h.AccessRange(start, n, AccessWriteStreamed) }

// WriteNTRange implements core.RangeBackend.
func (h *Hierarchy) WriteNTRange(start, n int64) { h.AccessRange(start, n, AccessWriteNT) }

// WriteNTRevertedRange implements core.RangeBackend.
func (h *Hierarchy) WriteNTRevertedRange(start, n int64) {
	h.AccessRange(start, n, AccessWriteNTReverted)
}

// accessRange runs n demand accesses (loads, or RFOs when dirty) on
// consecutive lines. A miss fetches the line from the nearest level
// holding it, installing it into every level above; dirty evictions
// write back one level down. Only loads (allowPF) drive the prefetchers:
// store streams are handled by the write-allocate-evasion engine, and
// prefetching them would defeat ItoM claims (the hardware suppresses
// this likewise).
func (h *Hierarchy) accessRange(start, n int64, dirty, allowPF bool) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	allowPF = allowPF && (h.pfOn || h.adjacentOn)
	for line := start; line < start+n; line++ {
		if l1.mayHold(line) {
			if w := l1.find(line, &l1.pred); w >= 0 {
				h.c.L1Hits++
				if dirty {
					l1.setDirty(line, w)
				}
				continue
			}
		}
		if l2.mayHold(line) && l2.find(line, &l2.pred) >= 0 {
			h.c.L2Hits++
		} else {
			if l3.mayHold(line) && l3.find(line, &l3.pred) >= 0 {
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
	if w := l2.lookup(line, &l2.predWB); w >= 0 {
		l2.setDirty(line, w)
		return
	}
	if ev, d := l2.install(line, true); d {
		h.writebackToL3(ev)
	}
}

// writebackToL3 handles a dirty eviction from L2.
func (h *Hierarchy) writebackToL3(line int64) {
	l3 := h.l3
	if w := l3.lookup(line, &l3.predWB); w >= 0 {
		l3.setDirty(line, w)
		return
	}
	if _, d := l3.install(line, true); d {
		h.c.MemWriteLines++
	}
}

// prefetch runs the prefetchers on a demand-load memory miss. The
// adjacent-line prefetcher fetches the line's 128-byte buddy. The L2
// streamer arms on a miss sequential to a previous miss and pulls the
// next pfDist lines into L3.
func (h *Hierarchy) prefetch(line int64) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	if h.adjacentOn {
		buddy := line ^ 1
		if l3.lookup(buddy, &l3.predPF) < 0 && l2.lookup(buddy, &l2.predPF) < 0 {
			h.pfFetch(buddy)
		}
	}
	if !h.pfOn {
		return
	}
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
	// Candidates already cached anywhere are skipped (lookup, with the
	// filter test spelled out so it inlines).
	for l := line + 1; l <= line+h.pfDist; l++ {
		if (!l3.mayHold(l) || l3.find(l, &l3.predPF) < 0) &&
			(!l2.mayHold(l) || l2.find(l, &l2.predPF) < 0) &&
			(!l1.mayHold(l) || l1.find(l, &l1.predPF) < 0) {
			h.pfFetch(l)
		}
	}
}

// pfFetch reads a prefetched line from memory into L3.
func (h *Hierarchy) pfFetch(line int64) {
	h.c.MemReadLines++
	h.c.PFLines++
	if _, d := h.l3.install(line, false); d {
		h.c.MemWriteLines++
	}
}

// claimI2M claims a line dirty at L3 without a memory read, dropping
// stale private copies so the dirty state lives at L3.
func (h *Hierarchy) claimI2M(line int64) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	h.c.ItoMLines++
	if w := l1.lookup(line, &l1.predPF); w >= 0 {
		l1.drop(line, w)
	}
	if w := l2.lookup(line, &l2.predPF); w >= 0 {
		l2.drop(line, w)
	}
	if w := l3.lookup(line, &l3.pred); w >= 0 {
		l3.setDirty(line, w)
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
	if w := l1.lookup(line, &l1.predPF); w >= 0 {
		l1.drop(line, w)
	}
	if w := l2.lookup(line, &l2.pred); w >= 0 {
		l2.setDirty(line, w)
		return
	}
	if ev, d := l2.install(line, true); d {
		h.writebackToL3(ev)
	}
}
