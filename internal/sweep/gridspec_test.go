package sweep

import (
	"fmt"
	"testing"
)

// TestGridSpecResolve: the names-based spec resolves through the
// mode/mesh parsers and the injected axis validator (the
// machine/workload registries live above this package).
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
