// Package model implements the paper's first-principles traffic
// models: per-loop code-balance limits (Table I), layer-condition cache
// requirements (Eq. 1/2) and the refined full-node model with the
// phenomenological SpecI2M factor (Fig. 7). Runtimes come from the time
// model of internal/cloverleaf; the package has no Roofline, ECM or
// halo-overhead model.
package model

import "cloversim/internal/trace"

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
func (m LoopModel) BytesMin() int { return trace.ElemBytes * (m.RDLCF + m.WR) }

// BytesLCFWA returns the code balance with fulfilled LCs but full WAs —
// the expected single-core value (byte/it_LCF,WA in Table I).
func (m LoopModel) BytesLCFWA() int { return trace.ElemBytes * (m.RDLCF + m.WR + m.Evadable()) }

// BytesLCB returns the code balance with broken LCs and no WAs.
func (m LoopModel) BytesLCB() int { return trace.ElemBytes * (m.RDLCB + m.WR) }

// BytesMax returns the worst case: broken LCs and full WAs.
func (m LoopModel) BytesMax() int { return trace.ElemBytes * (m.RDLCB + m.WR + m.Evadable()) }

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
	return base + (storeFactor-1)*float64(trace.ElemBytes*m.Evadable())
}

// LayerCondition returns the cache size in bytes required to keep `rows`
// rows of `rowElems` elements resident, using the conventional safety
// factor of 2 (Eq. 2: n*M*8 < C/2).
func LayerCondition(rows, rowElems int) int {
	return 2 * rows * rowElems * trace.ElemBytes
}
