package sweepd

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloversim/internal/sweep"
)

// TestExpandRequestScenarios: the request's keys parse back to their
// scenarios in order; a malformed key, numeric values no runner
// accepts and an empty list are errors.
func TestExpandRequestScenarios(t *testing.T) {
	want := []sweep.Scenario{
		{Machine: "icx", Ranks: 4, Seed: 9},
		{Machine: "spr8480", Workload: "jacobi", Mode: sweep.Mode{Name: "nt", NTStores: true}, Threads: 8},
	}
	req := expandRequest{Scenarios: []string{want[0].Key(), want[1].Key()}}
	got, err := req.scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenario %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := (expandRequest{Scenarios: []string{"garbage"}}).scenarios(); err == nil {
		t.Error("malformed key parsed")
	}
	for _, s := range []sweep.Scenario{{Machine: "icx", Ranks: -5}, {Machine: "icx", Threads: -2}, {Machine: "icx", MaxRows: -7}} {
		if _, err := (expandRequest{Scenarios: []string{want[0].Key(), s.Key()}}).scenarios(); err == nil ||
			!strings.Contains(err.Error(), "scenario 1") {
			t.Errorf("key %q: error %v, want a rejection of scenario 1", s.Key(), err)
		}
	}
	if _, err := (expandRequest{Scenarios: []string{(sweep.Scenario{Machine: "icx", MaxRows: -1}).Key()}}).scenarios(); err != nil {
		t.Errorf("full-extent scenario rejected: %v", err)
	}
	if _, err := (expandRequest{}).scenarios(); err == nil {
		t.Error("empty request produced scenarios")
	}
}

// TestExpandRequestKeepsDuplicateKeys: duplicates are the store's and
// the engine's documented convergence case, not damage — the request
// keeps them verbatim (position i in, position i out) and leaves dedup
// to the engine.
func TestExpandRequestKeepsDuplicateKeys(t *testing.T) {
	s := sweep.Scenario{Machine: "icx", Workload: "stream", Ranks: 4}
	got, err := (expandRequest{Scenarios: []string{s.Key(), s.Key(), s.Key()}}).scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("request collapsed %d duplicate keys to %d scenarios", 3, len(got))
	}
	for i, g := range got {
		if g != s {
			t.Errorf("scenario %d = %+v, want %+v", i, g, s)
		}
	}
}

// TestExpandRequestRoundTripsRefinedValues: the client's keys reach the
// server's runner as the scenarios it was given, for arbitrary numeric
// axis values too — adaptive search's refined midpoints (ranks no
// preset lists, meshes no flag would ever name) must survive the key
// round trip bit-exactly, because that is how refinement waves reach
// fleet workers.
func TestExpandRequestRoundTripsRefinedValues(t *testing.T) {
	want := []sweep.Scenario{
		{Machine: "icx", Workload: "jacobi", Ranks: 37, MaxRows: 8, Seed: 24301},
		{Machine: "spr8480", Workload: "jacobi", Mesh: sweep.Mesh{X: 1234, Y: 777}, MaxRows: -1},
		{Machine: "icx", Workload: "stream", Mode: sweep.Mode{Name: "nt", NTStores: true}, Threads: 111},
	}
	var mu sync.Mutex
	got := map[string]sweep.Scenario{}
	ts := httptest.NewServer(New(execStore(t), func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		mu.Lock()
		got[s.ID()] = s
		mu.Unlock()
		return syntheticMetrics(s), nil
	}, 2).Handler())
	t.Cleanup(ts.Close)

	if _, err := execute(NewClient(ts.URL, execPhysics), want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("runner received %d scenarios, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g, ok := got[w.ID()]; !ok || g != w || g.Key() != w.Key() {
			t.Errorf("scenario %d round-tripped to %+v (present %t), want %+v", i, g, ok, w)
		}
	}
}
