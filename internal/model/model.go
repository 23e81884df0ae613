// Package model implements the paper's first-principles performance
// models: per-loop code-balance limits (Table I), layer-condition cache
// requirements (Eq. 1/2), the Roofline performance limit (Sec. II-A), the
// refined full-node model with the phenomenological SpecI2M factor
// (Fig. 7), and the halo/partial-line overhead model of the prime-number
// effect (Sec. V-C).
package model

import (
	"math"

	"cloversim/internal/trace"
)

// ElemBytes is the element size of all modeled arrays (double precision).
const ElemBytes = 8

// LoopModel is the analytic traffic model of one loop, i.e. one row of
// Table I.
type LoopModel struct {
	Name    string
	Arrays  int // distinct arrays touched
	RDLCF   int // elements read per it, layer conditions fulfilled
	RDLCB   int // elements read per it, layer conditions broken
	WR      int // elements written per it
	RDWR    int // written elements that are read first (updates)
	FlopsIt int // flops per iteration
}

// Evadable returns the number of write streams whose write-allocate can
// be evaded (written but not read beforehand).
func (m LoopModel) Evadable() int { return m.WR - m.RDWR }

// BytesMin returns the minimum code balance: LC fulfilled, no WAs.
func (m LoopModel) BytesMin() int { return ElemBytes * (m.RDLCF + m.WR) }

// BytesLCFWA returns the code balance with fulfilled LCs but full WAs —
// the expected single-core value (byte/it_LCF,WA in Table I).
func (m LoopModel) BytesLCFWA() int { return ElemBytes * (m.RDLCF + m.WR + m.Evadable()) }

// BytesLCB returns the code balance with broken LCs and no WAs.
func (m LoopModel) BytesLCB() int { return ElemBytes * (m.RDLCB + m.WR) }

// BytesMax returns the worst case: broken LCs and full WAs.
func (m LoopModel) BytesMax() int { return ElemBytes * (m.RDLCB + m.WR + m.Evadable()) }

// FromLoop derives the analytic model from a trace.Loop definition, so
// the paper's hand-derived counts can be unit-tested against the encoded
// stencil offsets.
func FromLoop(l *trace.Loop) LoopModel {
	wr, upd := l.CountWrites()
	arrays := map[string]bool{}
	for _, r := range l.Reads {
		arrays[r.A.Name] = true
	}
	for _, w := range l.Writes {
		arrays[w.A.Name] = true
	}
	return LoopModel{
		Name:    l.Name,
		Arrays:  len(arrays),
		RDLCF:   l.CountLCF(),
		RDLCB:   l.CountLCB(),
		WR:      wr,
		RDWR:    upd,
		FlopsIt: l.FlopsPerIt,
	}
}

// RefinedPrediction returns the Fig. 7 refined model: the minimum code
// balance plus the residual write-allocate traffic under SpecI2M with the
// phenomenological store factor (1.2 on the ICX full node means 20% of
// the evadable WA traffic remains).
//
// Loops without SpecI2M-eligible stores (eligible=false) keep their full
// write-allocate traffic.
func (m LoopModel) RefinedPrediction(storeFactor float64, eligible bool) float64 {
	base := float64(m.BytesMin())
	if m.Evadable() == 0 {
		return base
	}
	if !eligible {
		return float64(m.BytesLCFWA())
	}
	return base + (storeFactor-1)*float64(ElemBytes*m.Evadable())
}

// NTPrediction returns the optimized-code model: one evadable write
// stream uses NT stores (revert fraction ntRevert), any remaining
// evadable stream is covered by SpecI2M at storeFactor.
func (m LoopModel) NTPrediction(storeFactor, ntRevert float64, eligible bool) float64 {
	base := float64(m.BytesMin())
	ev := m.Evadable()
	if ev == 0 {
		return base
	}
	// First evadable stream: NT stores; residual WA traffic = revert
	// fraction of one element.
	b := base + ntRevert*ElemBytes
	if ev > 1 {
		rest := float64(ElemBytes * (ev - 1))
		if eligible {
			b += (storeFactor - 1) * rest
		} else {
			b += rest
		}
	}
	return b
}

// LayerCondition returns the cache size in bytes required to keep `rows`
// rows of `rowElems` elements resident, using the conventional safety
// factor of 2 (Eq. 2: n*M*8 < C/2).
func LayerCondition(rows, rowElems int) int {
	return 2 * rows * rowElems * ElemBytes
}

// LayerConditionHolds reports whether the LC for `rows` rows fits a cache
// of size cacheBytes.
func LayerConditionHolds(rows, rowElems, cacheBytes int) bool {
	return LayerCondition(rows, rowElems) < cacheBytes
}

// Roofline returns the performance limit min(Pmax, I*bandwidth) in
// flop/s for intensity I (flop/byte).
func Roofline(pmax, intensity, bandwidth float64) float64 {
	return math.Min(pmax, intensity*bandwidth)
}

// RooflineIts returns the iteration throughput limit bandwidth/Bc in
// it/s for a memory-bound loop with code balance bytesPerIt.
func RooflineIts(bandwidth, bytesPerIt float64) float64 {
	if bytesPerIt == 0 {
		return math.Inf(1)
	}
	return bandwidth / bytesPerIt
}

// HaloReadOverhead returns the relative extra read volume per stream for
// a local inner dimension of `inner` elements: one extra cache line (8
// elements) of halo per row (Sec. V-C: 8/(216+8) = 3.57% for 71 ranks).
func HaloReadOverhead(inner int) float64 {
	return 8.0 / float64(inner+8)
}

// PrimeEffectReadPenalty estimates the SpecI2M-related extra read volume
// for an evadable write stream when the inner loop is short: the run
// detector needs minRun full lines per row before claims begin, so the
// unclaimed fraction grows as rows shrink.
func PrimeEffectReadPenalty(inner, minRun int, eff float64) float64 {
	lines := float64(inner) / 8.0
	if lines <= 0 {
		return eff
	}
	claimable := (lines - float64(minRun)) / lines
	if claimable < 0 {
		claimable = 0
	}
	return eff * (1 - claimable) // lost evasion fraction
}
