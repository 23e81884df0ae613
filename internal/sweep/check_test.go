package sweep

import "testing"

// TestGridCheck: the validators cmd/sweep resolves its flags through.
// Negative counts and a truncation below -1 are errors; 0 and -1 (full
// node, full extent) are not. Unknown modes and malformed meshes do
// not resolve.
func TestGridCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grid    Grid
		wantErr bool
	}{
		{"ranks -5", Grid{Ranks: []int{4, -5}}, true},
		{"threads -2", Grid{Threads: []int{-2}}, true},
		{"maxrows -7", Grid{MaxRows: -7}, true},
		{"full node", Grid{Ranks: []int{0}, Threads: []int{0}}, false},
		{"full extent", Grid{MaxRows: -1}, false},
		{"axes", Grid{Machines: []string{"icx"}, Ranks: []int{2, 4}, Threads: []int{8}, MaxRows: 8}, false},
	} {
		if err := tc.grid.Check(); (err != nil) != tc.wantErr {
			t.Errorf("%s: Check error %v, want error %t", tc.name, err, tc.wantErr)
		}
	}

	modes, err := ModesByName([]string{"baseline", "nt"})
	if err != nil || len(modes) != 2 || modes[1].Name != "nt" || !modes[1].NTStores {
		t.Errorf("modes resolved to %+v, %v", modes, err)
	}
	if _, err := ModesByName([]string{"warp-drive"}); err == nil {
		t.Error("unknown mode resolved")
	}
	meshes, err := ParseMeshes([]string{"128x64"})
	if err != nil || len(meshes) != 1 || meshes[0] != (Mesh{X: 128, Y: 64}) {
		t.Errorf("meshes resolved to %+v, %v", meshes, err)
	}
	if _, err := ParseMeshes([]string{"banana"}); err == nil {
		t.Error("bad mesh resolved")
	}
}
