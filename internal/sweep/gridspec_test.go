package sweep

import (
	"fmt"
	"strings"
	"testing"
)

// TestGridSpecResolve: the shared names-based spec expands through the
// same mode/mesh validators as before, with the axis validator
// injected (the machine/workload registries live above this package).
func TestGridSpecResolve(t *testing.T) {
	var sawMachines, sawWorkloads []string
	spec := GridSpec{
		Machines:  []string{"icx"},
		Workloads: []string{"stream"},
		Modes:     []string{"baseline", "nt"},
		Meshes:    []string{"128x64"},
		Ranks:     []int{2, 4},
		MaxRows:   8,
		Seed:      42,
	}
	grid, err := spec.Resolve(func(machines, workloads []string) error {
		sawMachines, sawWorkloads = machines, workloads
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sawMachines) != 1 || sawMachines[0] != "icx" || len(sawWorkloads) != 1 {
		t.Errorf("validator saw machines %v workloads %v", sawMachines, sawWorkloads)
	}
	if grid.Size() != 4 {
		t.Errorf("grid size %d, want 4 (2 modes x 2 ranks)", grid.Size())
	}
	if len(grid.Modes) != 2 || grid.Modes[1].Name != "nt" || !grid.Modes[1].NTStores {
		t.Errorf("modes resolved to %+v", grid.Modes)
	}
	if len(grid.Meshes) != 1 || grid.Meshes[0] != (Mesh{X: 128, Y: 64}) {
		t.Errorf("meshes resolved to %+v", grid.Meshes)
	}
	if grid.MaxRows != 8 || grid.Seed != 42 {
		t.Errorf("maxrows/seed = %d/%d, want 8/42", grid.MaxRows, grid.Seed)
	}

	// Validator failures and unknown modes/meshes are errors.
	if _, err := spec.Resolve(func([]string, []string) error { return fmt.Errorf("nope") }); err == nil || err.Error() != "nope" {
		t.Errorf("axis validator error not surfaced: %v", err)
	}
	bad := spec
	bad.Modes = []string{"warp-drive"}
	if _, err := bad.Resolve(nil); err == nil {
		t.Error("unknown mode resolved")
	}
	bad = spec
	bad.Meshes = []string{"banana"}
	if _, err := bad.Resolve(nil); err == nil {
		t.Error("bad mesh resolved")
	}

	// Negative counts and a truncation below -1 are errors; 0 and -1
	// (full node, full extent) are not.
	for _, tc := range []struct {
		name    string
		set     func(*GridSpec)
		wantErr bool
	}{
		{"ranks -5", func(g *GridSpec) { g.Ranks = []int{4, -5} }, true},
		{"threads -2", func(g *GridSpec) { g.Threads = []int{-2} }, true},
		{"maxrows -7", func(g *GridSpec) { g.MaxRows = -7 }, true},
		{"full node", func(g *GridSpec) { g.Ranks, g.Threads = []int{0}, []int{0} }, false},
		{"full extent", func(g *GridSpec) { g.MaxRows = -1 }, false},
	} {
		g := spec
		tc.set(&g)
		if _, err := g.Resolve(nil); (err != nil) != tc.wantErr {
			t.Errorf("%s: Resolve error %v, want error %t", tc.name, err, tc.wantErr)
		}
	}
}

// TestGridSpecExplicit: the explicit form round-trips canonical keys
// and rejects malformed keys and mixed specs.
func TestGridSpecExplicit(t *testing.T) {
	want := []Scenario{
		{Machine: "icx", Ranks: 4, Seed: 9},
		{Machine: "spr8480", Workload: "jacobi", Mode: Mode{Name: "nt", NTStores: true}, Threads: 8},
	}
	spec := GridSpec{Scenarios: []string{want[0].Key(), want[1].Key()}}
	if !spec.IsExplicit() {
		t.Fatal("explicit spec not recognized")
	}
	got, err := spec.Explicit()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenario %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := spec.Resolve(nil); err == nil {
		t.Error("explicit spec resolved as a grid")
	}

	mixed := spec
	mixed.Machines = []string{"icx"}
	if _, err := mixed.Explicit(); err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Errorf("mixed spec error %v, want a combination rejection", err)
	}
	bad := GridSpec{Scenarios: []string{"garbage"}}
	if _, err := bad.Explicit(); err == nil {
		t.Error("malformed key parsed")
	}
	for _, s := range []Scenario{{Machine: "icx", Ranks: -5}, {Machine: "icx", Threads: -2}, {Machine: "icx", MaxRows: -7}} {
		if _, err := (GridSpec{Scenarios: []string{want[0].Key(), s.Key()}}).Explicit(); err == nil ||
			!strings.Contains(err.Error(), "scenario 1") {
			t.Errorf("explicit %q: error %v, want a rejection of scenario 1", s.Key(), err)
		}
	}
	if _, err := (GridSpec{Scenarios: []string{(Scenario{Machine: "icx", MaxRows: -1}).Key()}}).Explicit(); err != nil {
		t.Errorf("explicit full-extent scenario rejected: %v", err)
	}
	if _, err := (GridSpec{}).Explicit(); err == nil {
		t.Error("axis-form spec produced explicit scenarios")
	}
}

// TestGridSpecExplicitDuplicateKeys: duplicates are the store's and the
// engine's documented convergence case, not damage — the explicit form
// preserves them verbatim (position i in, position i out) and leaves
// dedup to the engine.
func TestGridSpecExplicitDuplicateKeys(t *testing.T) {
	s := Scenario{Machine: "icx", Workload: "stream", Ranks: 4}
	spec := GridSpec{Scenarios: []string{s.Key(), s.Key(), s.Key()}}
	got, err := spec.Explicit()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("explicit form collapsed %d duplicate keys to %d scenarios", 3, len(got))
	}
	for i, g := range got {
		if g != s {
			t.Errorf("scenario %d = %+v, want %+v", i, g, s)
		}
	}
}

// TestGridSpecMixingRejectedPerAxis: every single axis field set
// alongside explicit scenarios makes the spec ambiguous — each one
// must reject on its own, including the scalar MaxRows and Seed fields.
func TestGridSpecMixingRejectedPerAxis(t *testing.T) {
	key := Scenario{Machine: "icx"}.Key()
	muts := map[string]func(*GridSpec){
		"machines":  func(g *GridSpec) { g.Machines = []string{"icx"} },
		"workloads": func(g *GridSpec) { g.Workloads = []string{"stream"} },
		"modes":     func(g *GridSpec) { g.Modes = []string{"baseline"} },
		"ranks":     func(g *GridSpec) { g.Ranks = []int{4} },
		"meshes":    func(g *GridSpec) { g.Meshes = []string{"128x64"} },
		"threads":   func(g *GridSpec) { g.Threads = []int{8} },
		"maxrows":   func(g *GridSpec) { g.MaxRows = 8 },
		"seed":      func(g *GridSpec) { g.Seed = 1 },
	}
	for name, mut := range muts {
		spec := GridSpec{Scenarios: []string{key}}
		mut(&spec)
		if _, err := spec.Explicit(); err == nil || !strings.Contains(err.Error(), "cannot be combined") {
			t.Errorf("%s alongside explicit scenarios: err %v, want a combination rejection", name, err)
		}
	}
}

// TestExplicitSpecRoundTripsRefinedValues: ExplicitSpec is the inverse
// of Explicit for arbitrary numeric axis values — the adaptive driver's
// refined midpoints (ranks no preset lists, meshes no flag would ever
// name) must survive the key round-trip bit-exactly, because that is
// how refinement waves reach fleet workers.
func TestExplicitSpecRoundTripsRefinedValues(t *testing.T) {
	want := []Scenario{
		{Machine: "icx", Workload: "jacobi", Ranks: 37, MaxRows: 8, Seed: 24301},
		{Machine: "spr8480", Workload: "jacobi", Mesh: Mesh{X: 1234, Y: 777}, MaxRows: -1},
		{Machine: "icx", Workload: "stream", Mode: Mode{Name: "nt", NTStores: true}, Threads: 111},
	}
	spec := ExplicitSpec(want)
	if !spec.IsExplicit() || spec.axesSet() {
		t.Fatalf("ExplicitSpec produced a non-explicit or mixed spec: %+v", spec)
	}
	got, err := spec.Explicit()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d scenarios, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenario %d round-tripped to %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Key() != want[i].Key() {
			t.Errorf("scenario %d key drifted: %q vs %q", i, got[i].Key(), want[i].Key())
		}
	}
}
