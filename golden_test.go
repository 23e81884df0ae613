package cloversim

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/sweep"
)

// updateGolden regenerates the golden-campaign fixtures:
//
//	go test -run TestGoldenCampaign -update-golden .
//
// Review the diff before committing — a changed fixture means the
// simulated physics changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_campaign.{csv,json}")

// goldenGrid is the canonical regression campaign: 2 machines x 3
// evasion modes x 2 workloads on a reduced mesh. Small enough to run in
// every CI pass, broad enough that a change to the memsim hierarchy,
// the store engine, the traffic generators, the time model or the
// emitters shows up as a byte diff.
func goldenGrid() sweep.Grid {
	baseline, _ := sweep.ModeByName("baseline")
	i2mOff, _ := sweep.ModeByName("speci2m-off")
	nt, _ := sweep.ModeByName("nt")
	return sweep.Grid{
		Machines:  []string{machine.NameICX8360Y, machine.NameSPR8480},
		Workloads: []string{"cloverleaf", "jacobi"},
		Modes:     []sweep.Mode{baseline, i2mOff, nt},
		Ranks:     []int{4},
		Threads:   []int{8},
		Meshes:    []sweep.Mesh{{X: 1536, Y: 1536}},
		MaxRows:   8,
		Seed:      0x5eed,
	}
}

// runGolden executes the canonical campaign and renders both emitters.
func runGolden(t *testing.T) (csv, json []byte) {
	t.Helper()
	c := sweep.NewEngine(0, RunScenarioContext).Run(context.Background(), goldenGrid().Expand(), nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := (sweep.CSVEmitter{}).Emit(&cb, c); err != nil {
		t.Fatal(err)
	}
	if err := (sweep.JSONEmitter{}).Emit(&jb, c); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestGoldenCampaign re-runs the checked-in canonical campaign and
// byte-compares its CSV and JSON output against testdata/ fixtures, so
// performance work on the simulation hot paths cannot silently change
// the physics. On a mismatch, inspect the diff; if the change is an
// intended model change, regenerate with -update-golden.
func TestGoldenCampaign(t *testing.T) {
	csvPath := filepath.Join("testdata", "golden_campaign.csv")
	jsonPath := filepath.Join("testdata", "golden_campaign.json")
	versionPath := filepath.Join("testdata", "physics_version")
	csv, json := runGolden(t)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		// A fixture rewrite that changes simulated bytes under an
		// unchanged PhysicsVersion would let the persistent store serve
		// results from the old physics as if they were current — flag it
		// loudly so the author bumps the constant in the same change.
		oldCSV, csvErr := os.ReadFile(csvPath)
		oldVersion, verErr := os.ReadFile(versionPath)
		if csvErr == nil && verErr == nil && !bytes.Equal(oldCSV, csv) &&
			string(bytes.TrimSpace(oldVersion)) == PhysicsVersion {
			// Stderr, not t.Logf: the warning must be visible on a
			// passing -update-golden run without -v.
			fmt.Fprintf(os.Stderr, "WARNING: golden fixtures changed but PhysicsVersion is still %q — "+
				"if this rewrite reflects a physics/model change, bump PhysicsVersion "+
				"in scenario.go so stale store records are invalidated\n", PhysicsVersion)
		}
		if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, json, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(versionPath, []byte(PhysicsVersion+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s, %s and %s", csvPath, jsonPath, versionPath)
		return
	}

	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create the fixture)", err)
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("campaign CSV deviates from golden fixture %s.\nThe simulated physics changed — if intended, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			csvPath, csv, wantCSV)
	}
	if !bytes.Equal(json, wantJSON) {
		t.Errorf("campaign JSON deviates from golden fixture %s (run with -update-golden if the change is intended)", jsonPath)
	}
}

// TestPhysicsVersionPinned ties PhysicsVersion to the golden fixtures:
// the constant must match the pin committed next to them, so bumping
// one without regenerating/reviewing the other fails CI. The pin is
// what lets the persistent store trust that two processes agreeing on
// PhysicsVersion simulate identical physics.
func TestPhysicsVersionPinned(t *testing.T) {
	pin, err := os.ReadFile(filepath.Join("testdata", "physics_version"))
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenCampaign -update-golden . to create the pin)", err)
	}
	if got := string(bytes.TrimSpace(pin)); got != PhysicsVersion {
		t.Errorf("PhysicsVersion = %q but testdata/physics_version pins %q; "+
			"regenerate fixtures with -update-golden when bumping the physics version", PhysicsVersion, got)
	}
}
