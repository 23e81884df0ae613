package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if _, ok := ByName("not-a-machine"); ok {
		t.Error("bogus preset resolved")
	}
}

func TestAllPresetsEnumerable(t *testing.T) {
	specs := AllPresets()
	names := Names()
	if len(specs) != len(names) {
		t.Fatalf("AllPresets returned %d specs, want %d", len(specs), len(names))
	}
	for i, s := range specs {
		if s.Name != names[i] {
			t.Errorf("preset %d is %q, want %q (Names order)", i, s.Name, names[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", s.Name, err)
		}
	}
	// Fresh specs each call: campaign-local mutations must not leak.
	a, b := AllPresets(), AllPresets()
	a[0].CoresPerSocket = 1
	if b[0].CoresPerSocket == 1 || AllPresets()[0].CoresPerSocket == 1 {
		t.Error("AllPresets must return fresh specs, not shared pointers")
	}
}

func TestCacheGeom(t *testing.T) {
	g := CacheGeom{SizeBytes: 48 * 1024, Ways: 12}
	if g.Sets() != 64 {
		t.Errorf("ICX L1 sets = %d, want 64", g.Sets())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	bad := CacheGeom{SizeBytes: 1000, Ways: 3}
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent geometry accepted")
	}
}

func TestCurveAt(t *testing.T) {
	c := Curve{{0.2, 0}, {0.5, 0.6}, {1.0, 1.0}}
	cases := []struct{ x, want float64 }{
		{0.0, 0}, {0.2, 0}, {0.35, 0.3}, {0.5, 0.6}, {0.75, 0.8}, {1.0, 1.0}, {2.0, 1.0},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("curve(%g) = %g, want %g", cse.x, got, cse.want)
		}
	}
	if (Curve{}).At(0.5) != 0 {
		t.Error("empty curve should evaluate to 0")
	}
}

func TestCurveValidate(t *testing.T) {
	if err := (Curve{{0.5, 0}, {0.4, 1}}).Validate(); err == nil {
		t.Error("non-monotone X accepted")
	}
	if err := (Curve{{0.5, 1.5}}).Validate(); err == nil {
		t.Error("Y > 1 accepted")
	}
}

// TestCurveMonotoneInputs: piecewise-linear interpolation stays within
// the hull of the Y values.
func TestCurveBoundsProperty(t *testing.T) {
	c := Curve{{0.1, 0}, {0.5, 0.7}, {1.0, 0.95}}
	f := func(x float64) bool {
		y := c.At(math.Abs(x))
		return y >= 0 && y <= 0.95
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopologyICX(t *testing.T) {
	s := ICX8360Y()
	if s.Cores() != 72 || s.NUMADomains() != 4 || s.CoresPerDomain() != 18 {
		t.Fatalf("ICX topology wrong: %d cores, %d domains, %d cpd",
			s.Cores(), s.NUMADomains(), s.CoresPerDomain())
	}
	if s.DomainOf(0) != 0 || s.DomainOf(17) != 0 || s.DomainOf(18) != 1 || s.DomainOf(71) != 3 {
		t.Error("DomainOf misassigns cores")
	}
	if s.ActiveSockets(36) != 1 || s.ActiveSockets(37) != 2 {
		t.Error("ActiveSockets wrong")
	}
}

func TestActiveInDomain(t *testing.T) {
	s := ICX8360Y()
	cases := []struct{ n, d, want int }{
		{10, 0, 10}, {10, 1, 0}, {20, 0, 18}, {20, 1, 2}, {72, 3, 18},
	}
	for _, c := range cases {
		if got := s.ActiveInDomain(c.n, c.d); got != c.want {
			t.Errorf("ActiveInDomain(%d,%d) = %d, want %d", c.n, c.d, got, c.want)
		}
	}
	// Partition property: per-domain actives sum to n.
	for n := 0; n <= 72; n++ {
		sum := 0
		for d := 0; d < s.NUMADomains(); d++ {
			sum += s.ActiveInDomain(n, d)
		}
		if sum != n {
			t.Fatalf("ActiveInDomain does not partition %d cores (sum %d)", n, sum)
		}
	}
}

func TestMemoryModel(t *testing.T) {
	s := ICX8360Y()
	// Fig. 2: saturation at about 9 cores.
	sat := s.Mem.DomainBandwidth / s.Mem.CoreBandwidth
	if sat < 8 || sat > 10 {
		t.Errorf("ICX domain saturates at %.1f cores, want ~9", sat)
	}
	if s.Mem.Bandwidth(18) != s.Mem.DomainBandwidth {
		t.Error("full domain should be saturated")
	}
	if s.Mem.Bandwidth(1) != s.Mem.CoreBandwidth {
		t.Error("single core gets its core bandwidth")
	}
	if s.Mem.Bandwidth(0) != 0 {
		t.Error("no cores, no bandwidth")
	}
}

func TestPressureAtOccupancy(t *testing.T) {
	s := ICX8360Y()
	if got := s.PressureAt(0, 9); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("9 of 18 cores should give occupancy 0.5, got %g", got)
	}
	if got := s.PressureAt(0, 72); got != 1 {
		t.Errorf("full node: occupancy of core 0 = %g, want 1", got)
	}
	// A core in the freshly touched domain sees low occupancy.
	if got := s.PressureAt(18, 19); math.Abs(got-1.0/18) > 1e-12 {
		t.Errorf("first core of domain 1 at 19 ranks: occupancy %g", got)
	}
}

func TestEvasionEffBasics(t *testing.T) {
	s := ICX8360Y()
	// Below threshold: no evasion (SpecI2M needs bandwidth draw).
	if e := s.EvasionEff(0.05, ClassPureStore, 1, 1, true); e != 0 {
		t.Errorf("serial evasion = %g, want 0", e)
	}
	// Saturated single socket: ~0.955 for one stream (store ratio 1.045).
	e1 := s.EvasionEff(1, ClassPureStore, 1, 1, true)
	if math.Abs(e1-0.955) > 0.01 {
		t.Errorf("saturated 1-stream evasion = %g, want ~0.955", e1)
	}
	// More streams evade less on ICX (Fig. 5).
	e3 := s.EvasionEff(1, ClassPureStore, 3, 1, true)
	if e3 >= e1 {
		t.Errorf("3-stream evasion %g should be below 1-stream %g", e3, e1)
	}
	// Two sockets lose efficiency (Fig. 5: 1.06 -> 1.2-1.25).
	e2s := s.EvasionEff(1, ClassPureStore, 1, 2, true)
	if e2s >= e1 || math.Abs(e2s-0.78) > 0.03 {
		t.Errorf("two-socket evasion = %g, want ~0.78", e2s)
	}
	// Copy kernels barely notice the second socket (Fig. 8).
	ec := s.EvasionEff(1, ClassCopy, 1, 2, true)
	if ec < 0.94 {
		t.Errorf("two-socket copy evasion = %g, want >= 0.94", ec)
	}
	// Prefetchers off degrade evasion.
	enopf := s.EvasionEff(1, ClassPureStore, 1, 1, false)
	if enopf >= e1 {
		t.Errorf("PF-off evasion %g should be below %g", enopf, e1)
	}
	// Disabled feature evades nothing.
	off := *s
	off.I2M.Enabled = false
	if e := off.EvasionEff(1, ClassPureStore, 1, 1, true); e != 0 {
		t.Errorf("disabled SpecI2M evasion = %g", e)
	}
}

func TestEvasionEffSPRKickIn(t *testing.T) {
	s := SPR8480()
	// Fig. 10: no benefit before ~18 of 56 cores.
	if e := s.EvasionEff(17.0/56, ClassPureStore, 1, 1, true); e != 0 {
		t.Errorf("SPR evasion at 17 cores = %g, want 0", e)
	}
	// Full socket: about half the WAs evaded.
	if e := s.EvasionEff(1, ClassPureStore, 1, 1, true); math.Abs(e-0.5) > 0.05 {
		t.Errorf("SPR full-socket evasion = %g, want ~0.5", e)
	}
	// No stream-count sensitivity on SPR.
	if s.EvasionEff(1, ClassPureStore, 1, 1, true) != s.EvasionEff(1, ClassPureStore, 3, 1, true) {
		t.Error("SPR should not differentiate stream counts")
	}
}

// Property: evasion efficiency is always within [0,1] and monotone
// non-decreasing in pressure.
func TestEvasionEffProperty(t *testing.T) {
	s := ICX8360Y()
	f := func(p1, p2 float64, streams uint8, sockets uint8) bool {
		a, b := math.Mod(math.Abs(p1), 1), math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		st := int(streams%4) + 1
		so := int(sockets%2) + 1
		ea := s.EvasionEff(a, ClassStencil, st, so, true)
		eb := s.EvasionEff(b, ClassStencil, st, so, true)
		return ea >= 0 && eb <= 1 && ea <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNTRevert(t *testing.T) {
	s := ICX8360Y()
	if r := s.NTRevert(1.0 / 72); r > 0.01 {
		t.Errorf("serial NT revert = %g, want ~0", r)
	}
	r := s.NTRevert(1)
	if math.Abs(r-0.165) > 0.01 {
		t.Errorf("full-node NT revert = %g, want ~0.165 (Fig. 5)", r)
	}
}

func TestMinRun(t *testing.T) {
	s := ICX8360Y()
	if s.MinRun(true) >= s.MinRun(false) {
		t.Errorf("PF-off warm-up %d should exceed PF-on %d", s.MinRun(false), s.MinRun(true))
	}
	// SPR tolerates strip-mining better: shorter warm-up (Fig. 11).
	if SPR8480().MinRun(true) >= s.MinRun(true) {
		t.Error("SPR warm-up should be shorter than ICX")
	}
}

func TestL3Slice(t *testing.T) {
	s := ICX8360Y()
	sl := s.L3Slice()
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 54 * 1024 * 1024 / 36
	if sl.SizeBytes > want || sl.SizeBytes < want-sl.Ways*64 {
		t.Errorf("L3 slice = %d bytes, want ~%d", sl.SizeBytes, want)
	}
}

func TestSNCVariants(t *testing.T) {
	snc := SPR8470SNCOn()
	if snc.NUMADomains() != 8 {
		t.Errorf("8470 SNC4 domains = %d, want 8", snc.NUMADomains())
	}
	off := SPR8470()
	// SNC on: smaller domains saturate faster, so evasion kicks in at
	// fewer absolute cores.
	kickOn := snc.I2M.PressureThreshold * float64(snc.CoresPerDomain())
	kickOff := off.I2M.PressureThreshold * float64(off.CoresPerDomain())
	if kickOn >= kickOff {
		t.Errorf("SNC-on kick-in %.1f cores should be below SNC-off %.1f", kickOn, kickOff)
	}
	icxOff := ICX8360YSNCOff()
	if icxOff.NUMADomains() != 2 {
		t.Errorf("ICX SNC-off domains = %d, want 2", icxOff.NUMADomains())
	}
}
