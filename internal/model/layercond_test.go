package model

import (
	"testing"

	"cloversim/internal/decomp"
	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// am04Loop builds the Listing 3 loop with a configurable row length.
func am04Loop(rowElems int) *trace.Loop {
	ar := trace.NewArena(true)
	mf := ar.Alloc("mass_flux_x", 0, rowElems+2, 0, 63)
	nf := ar.Alloc("node_flux", 0, rowElems+2, 0, 63)
	return &trace.Loop{
		Name: "am04",
		Reads: []trace.Access{
			{A: mf, DJ: 0, DK: -1}, {A: mf, DJ: 0, DK: 0},
			{A: mf, DJ: 1, DK: -1}, {A: mf, DJ: 1, DK: 0},
		},
		Writes:     []trace.Write{{A: nf}},
		FlopsPerIt: 4,
	}
}

// TestAM04LayerConditionTiny reproduces the paper's Eq. 2 argument: with
// M = 15360 the LC needs two rows of mass_flux_x (~492 kB with the
// safety factor including the write stream's row) and is satisfied by
// the aggregate per-core L2+L3 cache.
func TestAM04LayerConditionTiny(t *testing.T) {
	a := AnalyzeLC(am04Loop(15360), 15360, machine.ICX8360Y())
	if a.RowsNeeded != 2 {
		t.Errorf("am04 needs %d rows, want 2 (rows k-1 and k)", a.RowsNeeded)
	}
	if a.Level == 0 {
		t.Fatalf("Tiny-set LC must hold: %+v", a)
	}
	if a.Level == 1 {
		t.Errorf("full Tiny rows cannot fit L1: %+v", a)
	}
	if a.BytesPerItLCF != 16 || a.BytesPerItLCB != 24 {
		t.Errorf("am04 balances %d/%d, want 16/24", a.BytesPerItLCF, a.BytesPerItLCB)
	}
}

// TestLCBreaksForHugeRows: rows beyond the aggregate cache break the LC
// and the analysis suggests a valid block size.
func TestLCBreaksForHugeRows(t *testing.T) {
	huge := 1 << 21 // 2M elements/row: 3 rows x 16MB >> 2.8MB
	a := AnalyzeLC(am04Loop(huge), huge, machine.ICX8360Y())
	if a.Level != 0 {
		t.Fatalf("LC should break: %+v", a)
	}
	if a.MaxBlock <= 0 {
		t.Fatalf("blocking advice missing: %+v", a)
	}
	// The suggested block must itself satisfy the LC.
	b := AnalyzeLC(am04Loop(a.MaxBlock), a.MaxBlock, machine.ICX8360Y())
	if b.Level == 0 {
		t.Errorf("suggested block %d still breaks the LC", a.MaxBlock)
	}
}

// TestLCSweepPrimesDontBreak reproduces the paper's Sec. IV-C argument:
// on the Tiny grid no rank count, prime or not, breaks the am04 LC, so
// broken LCs cannot explain the prime-number effect. Each count n gets
// the inner dimension of its own decomposition.
func TestLCSweepPrimesDontBreak(t *testing.T) {
	for _, spec := range []*machine.Spec{machine.ICX8360Y(), machine.SPR8480()} {
		for n := 1; n <= spec.Cores(); n++ {
			dim := decomp.InnerDim(n, 15360, 15360)
			if a := AnalyzeLC(am04Loop(dim), dim, spec); a.Level == 0 {
				t.Errorf("%s: LC broken at %d ranks (inner dimension %d), contradicting the paper: %+v",
					spec.Name, n, dim, a)
			}
		}
	}
}
