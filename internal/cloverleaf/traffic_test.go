package cloverleaf

import (
	"math"
	"strings"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/model"
)

// TestSpecsMatchTable1Counts verifies that the encoded stencil offsets of
// all 22 hotspot loops reproduce the element counts of the paper's
// Table I exactly (arrays, RD_LCF, RD_LCB, WR, RD&WR, flops).
func TestSpecsMatchTable1Counts(t *testing.T) {
	tc := NewTrafficChunk(1, 128, 1, 64, 0, true)
	loops := tc.HotspotLoops(false)
	if len(loops) != 22 {
		t.Fatalf("%d hotspot loops, want 22", len(loops))
	}
	for _, li := range loops {
		want, ok := model.Table1ByName(li.Loop.Name)
		if !ok {
			t.Fatalf("loop %s not in Table 1", li.Loop.Name)
		}
		got := model.FromLoop(li.Loop)
		if got.Arrays != want.Arrays {
			t.Errorf("%s: arrays %d, want %d", li.Loop.Name, got.Arrays, want.Arrays)
		}
		if got.RDLCF != want.RDLCF {
			t.Errorf("%s: RD_LCF %d, want %d", li.Loop.Name, got.RDLCF, want.RDLCF)
		}
		if got.RDLCB != want.RDLCB {
			t.Errorf("%s: RD_LCB %d, want %d", li.Loop.Name, got.RDLCB, want.RDLCB)
		}
		if got.WR != want.WR {
			t.Errorf("%s: WR %d, want %d", li.Loop.Name, got.WR, want.WR)
		}
		if got.RDWR != want.RDWR {
			t.Errorf("%s: RD&WR %d, want %d", li.Loop.Name, got.RDWR, want.RDWR)
		}
		if got.FlopsIt != want.FlopsIt {
			t.Errorf("%s: flops %d, want %d", li.Loop.Name, got.FlopsIt, want.FlopsIt)
		}
	}
}

// TestHotspotEligibility: the paper found ac01/ac05 (simple copies) and
// ac02/ac06 (branchy) are not SpecI2M-eligible on ICX; restructuring
// recovers ac01/ac05 only.
func TestHotspotEligibility(t *testing.T) {
	tc := NewTrafficChunk(1, 64, 1, 32, 0, true)
	byName := func(loops []LoopInstance) map[string]*LoopInstance {
		m := map[string]*LoopInstance{}
		for i := range loops {
			m[loops[i].Loop.Name] = &loops[i]
		}
		return m
	}
	orig := byName(tc.HotspotLoops(false))
	for _, n := range []string{"ac01", "ac02", "ac05", "ac06"} {
		if orig[n].Loop.Eligible {
			t.Errorf("%s should be ineligible in the original code", n)
		}
	}
	opt := byName(tc.HotspotLoops(true))
	for _, n := range []string{"ac01", "ac05"} {
		if !opt[n].Loop.Eligible {
			t.Errorf("%s should be eligible after restructuring", n)
		}
	}
	for _, n := range []string{"ac02", "ac06"} {
		if opt[n].Loop.Eligible {
			t.Errorf("%s must stay ineligible (conditional branches)", n)
		}
	}
}

// TestCallsPerStepBudget: the per-step call counts must add up to the
// hydro cycle (each vol variant once, x/y sweeps twice for two velocity
// components, cell sweeps alternating).
func TestCallsPerStepBudget(t *testing.T) {
	tc := NewTrafficChunk(1, 64, 1, 32, 0, true)
	want := map[string]float64{
		"am00": 1, "am01": 1, "am02": 1, "am03": 1,
		"am04": 2, "am05": 2, "am06": 2, "am07": 2,
		"am08": 2, "am09": 2, "am10": 2, "am11": 2,
		"ac00": 0.5, "ac01": 0.5, "ac02": 1, "ac03": 1,
		"ac04": 0.5, "ac05": 0.5, "ac06": 1, "ac07": 1,
		"pdv00": 1, "pdv01": 1,
	}
	for _, li := range tc.HotspotLoops(false) {
		if got := li.CallsPerStep; got != want[li.Loop.Name] {
			t.Errorf("%s: calls/step %g, want %g", li.Loop.Name, got, want[li.Loop.Name])
		}
	}
}

// TestSingleCoreBalanceMatchesPaper is the headline Table I validation:
// the simulated single-core code balance of every hotspot loop must match
// the paper's measured byte/it_meas,1 within 3%.
func TestSingleCoreBalanceMatchesPaper(t *testing.T) {
	res, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 1, MaxRows: 32,
		AlignArrays: true, HotspotOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range model.Table1 {
		lt := res.Loop(row.Name)
		if lt == nil {
			t.Fatalf("loop %s missing", row.Name)
		}
		got := lt.BytesPerIt(res.InnerCells)
		err := math.Abs(got-row.MeasuredSingleCore) / row.MeasuredSingleCore
		if err > 0.03 {
			t.Errorf("%s: simulated %.2f byte/it vs paper %.2f (%.1f%% off)",
				row.Name, got, row.MeasuredSingleCore, 100*err)
		}
	}
}

// TestFullNodeRefinedModel: at 72 ranks the eligible loops must sit near
// the paper's refined prediction (factor 1.2), ineligible loops near the
// no-SpecI2M prediction, and class-(iii) loops must be invariant.
func TestFullNodeRefinedModel(t *testing.T) {
	res, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 72, MaxRows: 32,
		AlignArrays: true, HotspotOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ineligible := map[string]bool{"ac01": true, "ac02": true, "ac05": true, "ac06": true}
	for _, row := range model.Table1 {
		got := res.Loop(row.Name).BytesPerIt(res.InnerCells)
		pred := row.RefinedPrediction(1.2, !ineligible[row.Name])
		if e := math.Abs(got-pred) / pred; e > 0.08 {
			t.Errorf("%s: full-node %.2f vs refined prediction %.2f (%.1f%% off)",
				row.Name, got, pred, 100*e)
		}
	}
	// Class (iii) loops have no evadable writes: identical at 1 and 72.
	for _, n := range []string{"am07", "am11", "ac03", "ac07"} {
		row, _ := model.Table1ByName(n)
		got := res.Loop(n).BytesPerIt(res.InnerCells)
		if e := math.Abs(got-float64(row.BytesLCFWA())) / float64(row.BytesLCFWA()); e > 0.03 {
			t.Errorf("class-(iii) loop %s moved to %.2f at 72 ranks", n, got)
		}
	}
}

// TestPrimeNumberEffect: the paper's central finding — at prime rank
// counts the class-(i) loops lose SpecI2M evasion and read volume rises.
func TestPrimeNumberEffect(t *testing.T) {
	run := func(ranks int) *TrafficResult {
		res, err := RunTraffic(TrafficOptions{
			Machine: machine.ICX8360Y(), Ranks: ranks, MaxRows: 32,
			AlignArrays: true, HotspotOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r71, r72 := run(71), run(72)
	// Class (i) loops: am04, am06, am08, am10 show the strongest effect.
	for _, n := range []string{"am04", "am06", "am08", "am10"} {
		read71 := r71.Loop(n).ReadPerIt(r71.InnerCells)
		read72 := r72.Loop(n).ReadPerIt(r72.InnerCells)
		if read71 <= read72*1.02 {
			t.Errorf("%s: prime-rank read volume %.2f not above 72-rank %.2f",
				n, read71, read72)
		}
	}
	// Aggregate volume per step must be higher at 71 ranks than at 72.
	if r71.BytesPerStep() <= r72.BytesPerStep() {
		t.Errorf("prime step volume %.3g not above non-prime %.3g",
			r71.BytesPerStep(), r72.BytesPerStep())
	}
}

// TestSpecI2MOffFlattens: with the feature disabled the code balance
// stays at the single-core value for every rank count, and the prime
// effect (mostly) disappears — the paper's MSR experiment.
func TestSpecI2MOffFlattens(t *testing.T) {
	run := func(ranks int) *TrafficResult {
		res, err := RunTraffic(TrafficOptions{
			Machine: machine.ICX8360Y(), Ranks: ranks, MaxRows: 32,
			AlignArrays: true, HotspotOnly: true, SpecI2MOff: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r71, r72 := run(1), run(71), run(72)
	for _, n := range []string{"am04", "am00", "pdv00"} {
		b1 := r1.Loop(n).BytesPerIt(r1.InnerCells)
		b72 := r72.Loop(n).BytesPerIt(r72.InnerCells)
		if math.Abs(b72-b1)/b1 > 0.03 {
			t.Errorf("%s: SpecI2M-off balance moved %g -> %g across ranks", n, b1, b72)
		}
		// The residual prime overhead is only halo traffic (a few %).
		b71 := r71.Loop(n).BytesPerIt(r71.InnerCells)
		if (b71-b72)/b72 > 0.06 {
			t.Errorf("%s: prime effect persists with SpecI2M off: %g vs %g", n, b71, b72)
		}
	}
}

// TestInstrumentedSpecI2MKnob: disabling the feature raises the measured
// traffic of evadable loops under saturation pressure, and leaves a
// class-(iii) loop where it was.
func TestInstrumentedSpecI2MKnob(t *testing.T) {
	run := func(off bool) *TrafficResult {
		res, err := RunTraffic(TrafficOptions{
			Machine: machine.ICX8360Y(), Ranks: 18, MaxRows: 24,
			AlignArrays: true, HotspotOnly: true, SpecI2MOff: off,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(false), run(true)
	if bOn, bOff := on.Loop("am04").BytesPerIt(on.InnerCells), off.Loop("am04").BytesPerIt(off.InnerCells); bOn >= bOff {
		t.Errorf("SpecI2M on (%.2f) should beat off (%.2f) for am04", bOn, bOff)
	}
	if bOn, bOff := on.Loop("am07").BytesPerIt(on.InnerCells), off.Loop("am07").BytesPerIt(off.InnerCells); math.Abs(bOn-bOff) > 0.5 {
		t.Errorf("am07 moved with the knob: %.2f vs %.2f", bOn, bOff)
	}
}

// TestInstrumentedRunMatchesTable1: a physics run and the traffic study
// of the same mesh agree with the paper's Table I. The solver keeps a
// positive mass; the study covers all 22 hotspot loops at their call
// rates (integer-call loops every step, the half-call sweeps on
// alternate steps); each loop's single-core code balance is within 25%
// of the LCF+WA prediction (the 96x96 rows are short, so halo overhead
// is larger than on the paper's mesh).
func TestInstrumentedRunMatchesTable1(t *testing.T) {
	cfg := Small(96, 4)
	s, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mass <= 0 {
		t.Fatal("physics side broke")
	}

	res, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 1, GridX: cfg.GridX, GridY: cfg.GridY,
		MaxRows: 32, AlignArrays: true, HotspotOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 22 {
		t.Fatalf("study covers %d loops", len(res.Loops))
	}
	for _, row := range model.Table1 {
		lt := res.Loop(row.Name)
		if lt == nil {
			t.Fatalf("loop %s missing", row.Name)
		}
		got, pred := lt.BytesPerIt(res.InnerCells), float64(row.BytesLCFWA())
		if e := math.Abs(got-pred) / pred; e > 0.25 {
			t.Errorf("%s: simulated %.2f vs LCF+WA %.0f (%.0f%% off)",
				row.Name, got, pred, 100*e)
		}
	}
	if c := res.Loop("am04").CallsPerStep; c != 2 {
		t.Errorf("am04 calls/step = %g, want 2", c)
	}
	if c := res.Loop("ac00").CallsPerStep; c != 0.5 {
		t.Errorf("ac00 calls/step = %g, want 0.5", c)
	}
}

// TestNTStoresReduceBalance: the optimized build must lower the total
// hotspot code balance (paper: 5.8% on average, max 23.2% per loop).
func TestNTStoresReduceBalance(t *testing.T) {
	base := TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 72, MaxRows: 32,
		AlignArrays: true, HotspotOnly: true,
	}
	orig, err := RunTraffic(base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.NTStores = true
	opt.OptimizeLoops = true
	best, err := RunTraffic(opt)
	if err != nil {
		t.Fatal(err)
	}
	var sumO, sumB, maxGain float64
	for _, row := range model.Table1 {
		o := orig.Loop(row.Name).BytesPerIt(orig.InnerCells)
		b := best.Loop(row.Name).BytesPerIt(best.InnerCells)
		sumO += o
		sumB += b
		if g := (o - b) / o; g > maxGain {
			maxGain = g
		}
	}
	gain := 1 - sumB/sumO
	if gain < 0.02 || gain > 0.12 {
		t.Errorf("optimized build gain %.1f%%, want a few percent (paper: 5.8%%)", 100*gain)
	}
	if maxGain < 0.10 {
		t.Errorf("max per-loop gain %.1f%%, want >10%% (paper: 23.2%% for ac05)", 100*maxGain)
	}
}

// TestRestructuredLoopsGainEvasion: ac01/ac05 keep full write-allocates
// in the original build but evade after restructuring.
func TestRestructuredLoopsGainEvasion(t *testing.T) {
	base := TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 36, MaxRows: 32,
		AlignArrays: true, HotspotOnly: true,
	}
	orig, err := RunTraffic(base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.OptimizeLoops = true
	rest, err := RunTraffic(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ac01", "ac05"} {
		o := orig.Loop(n).BytesPerIt(orig.InnerCells)
		r := rest.Loop(n).BytesPerIt(rest.InnerCells)
		if r >= o-4 { // two evadable writes x 8B x high efficiency
			t.Errorf("%s: restructuring gained only %.2f byte/it (%.2f -> %.2f)",
				n, o-r, o, r)
		}
	}
}

// TestAuxLoopsPresent: the full traffic study includes the non-hotspot
// kernels needed for Listing 2 and Fig. 2.
func TestAuxLoopsPresent(t *testing.T) {
	res, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 4, MaxRows: 16, AlignArrays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ideal_gas", "viscosity", "calc_dt", "accelerate",
		"flux_calc_x", "flux_calc_y", "reset_field_cell", "reset_field_node"} {
		if res.Loop(n) == nil {
			t.Errorf("aux loop %s missing", n)
		}
	}
}

// TestTruncatedLoopsDifferOnlyInKHi: a chunk cut to fewer rows builds
// the same loops as the full chunk, with each KHi lower by the cut
// rows. simulateGroup derives every loop's full iteration count from
// this rule instead of building the full chunk.
func TestTruncatedLoopsDifferOnlyInKHi(t *testing.T) {
	const rows, maxRows = 64, 8
	cut, full := NewTrafficChunk(1, 96, 1, rows, maxRows, true), NewTrafficChunk(1, 96, 1, rows, 0, true)
	for _, opt := range []bool{false, true} {
		got := append(cut.HotspotLoops(opt), cut.AuxLoops()...)
		want := append(full.HotspotLoops(opt), full.AuxLoops()...)
		if len(got) != len(want) {
			t.Fatalf("optimize %v: %d loops on the cut chunk, %d on the full chunk", opt, len(got), len(want))
		}
		for i, li := range got {
			b := li.Bounds
			b.KHi += rows - maxRows
			if li.Loop.Name != want[i].Loop.Name || b != want[i].Bounds {
				t.Errorf("optimize %v: loop %s bounds %+v raised by %d rows give %+v, full chunk's %s has %+v",
					opt, li.Loop.Name, li.Bounds, rows-maxRows, b, want[i].Loop.Name, want[i].Bounds)
			}
		}
	}
}

// TestRowLimit pins the front ends' one row rule: 0 is the default of
// 32 rows, -1 the full extent (MaxRows 0), a positive setting is kept,
// and a setting below -1 is an error.
func TestRowLimit(t *testing.T) {
	for _, c := range []struct {
		rows, want int
		ok         bool
	}{
		{0, 32, true}, {-1, 0, true}, {1, 1, true}, {8, 8, true}, {512, 512, true},
		{-2, 0, false}, {-7, 0, false}, {-32, 0, false},
	} {
		got, err := RowLimit(c.rows)
		if got != c.want || (err == nil) != c.ok {
			t.Errorf("RowLimit(%d) = %d, %v; want %d, error %t", c.rows, got, err, c.want, !c.ok)
		}
	}
}

// TestTrafficOptionValidation: bad inputs are rejected.
func TestTrafficOptionValidation(t *testing.T) {
	if _, err := RunTraffic(TrafficOptions{Ranks: 1}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := RunTraffic(TrafficOptions{Machine: machine.ICX8360Y(), Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := RunTraffic(TrafficOptions{Machine: machine.ICX8360Y(), Ranks: 1000}); err == nil {
		t.Error("oversubscription accepted")
	}
	// A prime rank count cuts the inner dimension into that many
	// chunks: more chunks than columns leaves ranks without cells.
	for _, c := range []struct{ ranks, mesh int }{{5, 4}, {3, 2}, {7, 6}} {
		_, err := RunTraffic(TrafficOptions{Machine: machine.ICX8360Y(), Ranks: c.ranks, GridX: c.mesh, GridY: c.mesh})
		if err == nil || !strings.Contains(err.Error(), "without cells") {
			t.Errorf("%d ranks on a %dx%[2]d mesh: err %v, want a rank without cells", c.ranks, c.mesh, err)
		}
	}
	res, err := RunTraffic(TrafficOptions{Machine: machine.ICX8360Y(), Ranks: 4, GridX: 4, GridY: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.BytesPerStep(); !(v > 0) || math.IsInf(v, 0) {
		t.Errorf("4 ranks on a 4x4 mesh: %g bytes per step", v)
	}
}

// TestUnalignedArraysRaiseTraffic: ALIGN_ARRAYS=OFF adds partial-line
// write-allocates at row boundaries.
func TestUnalignedArraysRaiseTraffic(t *testing.T) {
	aligned, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 36, MaxRows: 32,
		AlignArrays: true, HotspotOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	unaligned, err := RunTraffic(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: 36, MaxRows: 32,
		AlignArrays: false, HotspotOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if unaligned.BytesPerStep() < aligned.BytesPerStep() {
		t.Errorf("unaligned arrays should not lower traffic: %.3g vs %.3g",
			unaligned.BytesPerStep(), aligned.BytesPerStep())
	}
}
