package model

import (
	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// LCAnalysis reports the layer-condition status of one loop on one
// machine for a given inner (row) dimension — the Sec. II-C machinery of
// the paper, generalized so downstream users can analyze their own
// stencils and derive blocking factors.
type LCAnalysis struct {
	RowElems int
	// RowsNeeded is the number of grid rows that must stay resident for
	// full reuse: the maximal row-offset spread over all arrays.
	RowsNeeded int
	// RequiredBytes is the cache needed (with the conventional factor-2
	// safety margin) to satisfy the LC for all arrays simultaneously.
	RequiredBytes int
	// Level is the innermost cache level satisfying the LC (1, 2, 3), or
	// 0 if only memory-resident (LC broken everywhere).
	Level int
	// BytesPerItLCF / BytesPerItLCB are the resulting code balances.
	BytesPerItLCF, BytesPerItLCB int
	// MaxBlock is the largest inner block size (elements) for which the
	// LC still holds in the L2 cache — the tiling advice of Sec. II-C.
	MaxBlock int
}

// rowSpread returns, per array, the number of distinct row offsets and
// the total spread (max-min+1) of accessed rows.
func rowSpread(l *trace.Loop) (arrays int, maxSpread int, totalRows int) {
	type span struct{ lo, hi int }
	spans := map[string]*span{}
	add := func(name string, dk int) {
		s, ok := spans[name]
		if !ok {
			spans[name] = &span{dk, dk}
			return
		}
		if dk < s.lo {
			s.lo = dk
		}
		if dk > s.hi {
			s.hi = dk
		}
	}
	for _, r := range l.Reads {
		add(r.A.Name, r.DK)
	}
	for _, w := range l.Writes {
		add(w.A.Name, 0)
	}
	for _, s := range spans {
		spread := s.hi - s.lo + 1
		if spread > maxSpread {
			maxSpread = spread
		}
		totalRows += spread
	}
	return len(spans), maxSpread, totalRows
}

// AnalyzeLC evaluates the layer conditions of a loop with rows of
// rowElems elements on the given machine. The per-core cache capacity at
// each level is L1, L1+L2, and L1+L2+L3 slice, following the paper's
// aggregate-cache argument (Sec. IV-C).
func AnalyzeLC(l *trace.Loop, rowElems int, spec *machine.Spec) LCAnalysis {
	_, maxSpread, totalRows := rowSpread(l)
	m := FromLoop(l)

	a := LCAnalysis{
		RowElems:      rowElems,
		RowsNeeded:    maxSpread,
		RequiredBytes: LayerCondition(totalRows, rowElems),
		BytesPerItLCF: m.BytesMin(),
		BytesPerItLCB: m.BytesLCB(),
	}

	caps := []int{
		spec.L1.SizeBytes,
		spec.L1.SizeBytes + spec.L2.SizeBytes,
		spec.L1.SizeBytes + spec.L2.SizeBytes + spec.L3Slice().SizeBytes,
	}
	for level := len(caps); level >= 1; level-- {
		if a.RequiredBytes < caps[level-1] {
			a.Level = level
		}
	}

	// Largest block size that still fits the L2-level capacity.
	if totalRows > 0 {
		a.MaxBlock = caps[1] / (2 * totalRows * trace.ElemBytes)
	}
	return a
}
