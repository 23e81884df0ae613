package cloversim

import (
	"context"
	"math"
	"testing"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// TestStoreRoundTripMatchesColdRun is the differential property behind
// resumable campaigns: for EVERY registered workload under EVERY
// write-allocate-evasion mode, writing a cold RunScenarioContext result to
// the persistent store, reopening the store from disk, and reading the
// record back must reproduce the metrics bit-identically (names,
// order, and IEEE-754 bit patterns). If this holds, a warm campaign
// cannot drift from the cold one by even an ULP, which is what makes
// byte-identical emitter output possible.
func TestStoreRoundTripMatchesColdRun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}

	var scenarios []sweep.Scenario
	for _, wl := range workload.Names() {
		for _, mode := range sweep.AllModes() {
			scenarios = append(scenarios, sweep.Scenario{
				Machine:  "icx",
				Workload: wl,
				Mode:     mode,
				Ranks:    2,
				Mesh:     sweep.Mesh{X: 768, Y: 768},
				Threads:  2,
				MaxRows:  4,
				Seed:     0x5eed,
			})
		}
	}
	if len(scenarios) < 20 {
		t.Fatalf("only %d workload x mode combinations; registry shrank?", len(scenarios))
	}

	cold := make(map[string]sweep.Metrics, len(scenarios))
	for _, sc := range scenarios {
		m, err := RunScenarioContext(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: cold run: %v", sc.Label(), err)
		}
		if len(m) == 0 {
			t.Fatalf("%s: cold run produced no metrics", sc.Label())
		}
		cold[sc.ID()] = m
		if err := st.Put(sc, m); err != nil {
			t.Fatalf("%s: store write: %v", sc.Label(), err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: everything below is served from the JSONL
	// segments, not process memory.
	st2, err := store.Open(dir, PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != len(scenarios) {
		t.Fatalf("reopened store holds %d records, want %d", st2.Len(), len(scenarios))
	}
	for _, sc := range scenarios {
		want := cold[sc.ID()]
		got, ok := st2.Get(sc)
		if !ok {
			t.Errorf("%s: record missing after reopen", sc.Label())
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics after round trip, want %d", sc.Label(), len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Name != want[i].Name {
				t.Errorf("%s: metric %d named %q after round trip, want %q",
					sc.Label(), i, got[i].Name, want[i].Name)
			}
			gb, wb := math.Float64bits(got[i].Value), math.Float64bits(want[i].Value)
			if gb != wb {
				t.Errorf("%s: metric %s bits %#016x after round trip, want %#016x (Δ=%g)",
					sc.Label(), want[i].Name, gb, wb, got[i].Value-want[i].Value)
			}
		}
		// The stored record also reconstructs the scenario itself.
		rec, ok := st2.Lookup(sc.ID())
		if !ok || rec.Scenario != sc {
			t.Errorf("%s: scenario did not survive the key round trip: %+v", sc.Label(), rec.Scenario)
		}
	}

	// Determinism cross-check: a second cold run bit-matches the first,
	// so the property above really is "store == simulation", not
	// "store == one lucky sample".
	for _, sc := range scenarios[:4] {
		m, err := RunScenarioContext(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		want := cold[sc.ID()]
		for i := range want {
			if math.Float64bits(m[i].Value) != math.Float64bits(want[i].Value) {
				t.Errorf("%s: cold re-run not deterministic at metric %s", sc.Label(), want[i].Name)
			}
		}
	}

	// Maintenance must preserve the property: compact the store (merging
	// segments, rewriting the index sidecar) and reopen once more — this
	// open recovers through the sidecar, so every record below is read
	// lazily at its byte offset. Bits must still match the cold run.
	if _, err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if stats := st3.Stats(); stats.Sidecars != 1 || stats.Segments != 1 {
		t.Fatalf("post-compact reopen did not recover via sidecar: %s", stats)
	}
	for _, sc := range scenarios {
		want := cold[sc.ID()]
		got, ok := st3.Get(sc)
		if !ok {
			t.Errorf("%s: record missing after compact + lazy reopen", sc.Label())
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics after compacted round trip, want %d", sc.Label(), len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Name != want[i].Name ||
				math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Errorf("%s: metric %s drifted through compaction + lazy load", sc.Label(), want[i].Name)
			}
		}
	}
}
