package model

import (
	"math"
	"testing"
	"testing/quick"
)

// TestTable1DerivedColumns checks the four byte/it columns of the paper's
// Table I against the LoopModel formulas for all 22 loops. These are the
// paper's exact published numbers.
func TestTable1DerivedColumns(t *testing.T) {
	want := map[string][4]int{ // min, LCF+WA, LCB, max
		"am00":  {40, 56, 48, 64},
		"am01":  {40, 56, 48, 64},
		"am02":  {32, 48, 40, 56},
		"am03":  {32, 48, 32, 48},
		"am04":  {16, 24, 24, 32},
		"am05":  {40, 56, 56, 72},
		"am06":  {32, 40, 32, 40},
		"am07":  {40, 40, 40, 40},
		"am08":  {16, 24, 24, 32},
		"am09":  {40, 56, 64, 80},
		"am10":  {32, 40, 48, 56},
		"am11":  {40, 40, 48, 48},
		"ac00":  {40, 56, 48, 64},
		"ac01":  {32, 48, 32, 48},
		"ac02":  {48, 64, 48, 64},
		"ac03":  {64, 64, 64, 64},
		"ac04":  {40, 56, 48, 64},
		"ac05":  {32, 48, 40, 56},
		"ac06":  {48, 64, 80, 96},
		"ac07":  {64, 64, 88, 88},
		"pdv00": {88, 104, 112, 128},
		"pdv01": {104, 120, 144, 160},
	}
	if len(Table1) != 22 {
		t.Fatalf("Table1 has %d rows, want 22", len(Table1))
	}
	for _, r := range Table1 {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected loop %s", r.Name)
		}
		got := [4]int{r.BytesMin(), r.BytesLCFWA(), r.BytesLCB(), r.BytesMax()}
		if got != w {
			t.Errorf("%s: byte/it columns = %v, paper says %v", r.Name, got, w)
		}
	}
}

// TestTable1MeasuredNearLCFWA verifies the paper's observation that the
// measured single-core balance matches the fulfilled-LC + write-allocate
// prediction within a few percent for every loop.
func TestTable1MeasuredNearLCFWA(t *testing.T) {
	for _, r := range Table1 {
		pred := float64(r.BytesLCFWA())
		err := math.Abs(r.MeasuredSingleCore-pred) / pred
		if err > 0.05 {
			t.Errorf("%s: measured %.2f deviates %.1f%% from LCF+WA %.0f",
				r.Name, r.MeasuredSingleCore, 100*err, pred)
		}
	}
}

func TestTable1ByName(t *testing.T) {
	r, ok := Table1ByName("am04")
	if !ok || r.WR != 1 || r.RDLCF != 1 {
		t.Fatalf("am04 lookup failed: %+v ok=%v", r, ok)
	}
	if _, ok := Table1ByName("zz99"); ok {
		t.Fatal("bogus loop name found")
	}
}

func TestHotspotLoopNamesOrder(t *testing.T) {
	names := HotspotLoopNames()
	if len(names) != 22 || names[0] != "am00" || names[21] != "pdv01" {
		t.Fatalf("unexpected loop name order: %v", names)
	}
}

func TestEvadable(t *testing.T) {
	m := LoopModel{WR: 2, RDWR: 2}
	if m.Evadable() != 0 {
		t.Errorf("update-only loop should have no evadable writes, got %d", m.Evadable())
	}
	m = LoopModel{WR: 2, RDWR: 0}
	if m.Evadable() != 2 {
		t.Errorf("want 2 evadable writes, got %d", m.Evadable())
	}
}

// TestRefinedPrediction checks the Fig. 7 model: factor 1.2 leaves 20% of
// the evadable WA traffic.
func TestRefinedPrediction(t *testing.T) {
	r, _ := Table1ByName("am04") // min 16, evadable 1
	got := r.RefinedPrediction(1.2, true)
	if math.Abs(got-17.6) > 1e-9 {
		t.Errorf("am04 refined prediction = %g, want 17.6", got)
	}
	// Ineligible loops keep the full write-allocate.
	got = r.RefinedPrediction(1.2, false)
	if got != float64(r.BytesLCFWA()) {
		t.Errorf("ineligible prediction = %g, want %d", got, r.BytesLCFWA())
	}
	// Class (iii) loops (no evadable writes) are unaffected by the factor.
	r3, _ := Table1ByName("am07")
	if r3.RefinedPrediction(1.2, true) != float64(r3.BytesMin()) {
		t.Errorf("am07 should be factor-invariant")
	}
}

func TestLayerCondition(t *testing.T) {
	// Paper Eq. 2: two rows of 15360 doubles need C > 492 kB.
	c := LayerCondition(2, 15360)
	if c != 2*2*15360*8 {
		t.Fatalf("LayerCondition = %d", c)
	}
	if c < 490_000 || c > 495_000 {
		t.Errorf("paper's 492 kB check failed: %d", c)
	}
}

// Property: for any counts, min <= LCF,WA <= max and min <= LCB <= max.
func TestBalanceOrderingProperty(t *testing.T) {
	f := func(rdLCF, extraLCB, wr, rdwr uint8) bool {
		m := LoopModel{
			RDLCF: int(rdLCF % 16),
			RDLCB: int(rdLCF%16) + int(extraLCB%8),
			WR:    int(wr%4) + 1,
		}
		m.RDWR = int(rdwr) % (m.WR + 1)
		return m.BytesMin() <= m.BytesLCFWA() &&
			m.BytesLCFWA() <= m.BytesMax() &&
			m.BytesMin() <= m.BytesLCB() &&
			m.BytesLCB() <= m.BytesMax()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
