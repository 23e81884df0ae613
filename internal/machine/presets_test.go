package machine

import "testing"

// TestPresetGeometryInvariants is the table-driven validation of every
// registered machine preset: the cache geometry invariants the memsim
// hierarchy and the layer-condition analysis rely on.
func TestPresetGeometryInvariants(t *testing.T) {
	presets := AllPresets()
	if len(presets) != len(Names()) {
		t.Fatalf("AllPresets returned %d specs for %d names", len(presets), len(Names()))
	}
	for _, spec := range presets {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			// Capacity hierarchy: private L1 <= private L2 <= shared L3.
			if !(spec.L1.SizeBytes <= spec.L2.SizeBytes && spec.L2.SizeBytes <= spec.L3.SizeBytes) {
				t.Errorf("cache sizes not monotone: L1 %d, L2 %d, L3 %d",
					spec.L1.SizeBytes, spec.L2.SizeBytes, spec.L3.SizeBytes)
			}
			levels := map[string]CacheGeom{
				"L1": spec.L1, "L2": spec.L2, "L3": spec.L3, "L3slice": spec.L3Slice(),
			}
			for name, g := range levels {
				// Associativity divides the capacity into whole sets.
				if g.SizeBytes%(g.Ways*LineBytes) != 0 {
					t.Errorf("%s size %d not divisible by ways*line %d",
						name, g.SizeBytes, g.Ways*LineBytes)
				}
				if g.Sets() < 1 {
					t.Errorf("%s has %d sets", name, g.Sets())
				}
			}
			// Topology: cores divide evenly into NUMA domains and the
			// pressure model covers the whole node.
			if spec.CoresPerSocket%spec.NUMAPerSocket != 0 {
				t.Errorf("cores/socket %d not divisible by NUMA/socket %d",
					spec.CoresPerSocket, spec.NUMAPerSocket)
			}
			if got := spec.ActiveInDomain(spec.Cores(), spec.NUMADomains()-1); got != spec.CoresPerDomain() {
				t.Errorf("full node fills %d cores of the last domain, want %d", got, spec.CoresPerDomain())
			}
			if p := spec.PressureAt(0, spec.Cores()); p != 1 {
				t.Errorf("full-node pressure at core 0 = %g, want 1", p)
			}
			// The evasion calibration must stay inside [0, 1] wherever
			// the simulator can evaluate it.
			for _, class := range []KernelClass{ClassPureStore, ClassCopy, ClassStencil} {
				for _, pressure := range []float64{0, 0.25, 0.5, 0.75, 1} {
					for _, sockets := range []int{1, spec.Sockets} {
						e := spec.EvasionEff(pressure, class, 2, sockets, true)
						if e < 0 || e > 1 {
							t.Errorf("EvasionEff(%g, %v, sockets=%d) = %g outside [0,1]",
								pressure, class, sockets, e)
						}
					}
				}
			}
		})
	}
}

// TestByNameTable: every listed name resolves, resolves fresh (no
// shared mutable spec), and unknown names fail.
func TestByNameTable(t *testing.T) {
	for _, name := range Names() {
		a, ok := ByName(name)
		if !ok || a.Name != name {
			t.Fatalf("preset %q does not round-trip", name)
		}
		b, _ := ByName(name)
		if a == b {
			t.Errorf("preset %q returns a shared pointer; campaigns mutate spec copies", name)
		}
	}
	if _, ok := ByName("bogus-machine"); ok {
		t.Error("bogus machine resolved")
	}
}
