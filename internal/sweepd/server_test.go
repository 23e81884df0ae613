package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), cloversim.PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func startServer(t *testing.T, st ResultStore, runner sweep.Runner, workers int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(st, runner, workers).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// scenariosOf expands an axis-form spec into the scenarios an expand
// request carries as keys.
func scenariosOf(t *testing.T, spec sweep.GridSpec) []sweep.Scenario {
	t.Helper()
	grid, err := spec.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return grid.Expand()
}

// smallScenarios are fast real-physics cells: 2 machines x 2 modes,
// tiny mesh.
func smallScenarios(t *testing.T) []sweep.Scenario {
	return scenariosOf(t, sweep.GridSpec{
		Machines:  []string{"icx", "spr8480"},
		Workloads: []string{"jacobi"},
		Modes:     []string{"baseline", "nt"},
		Ranks:     []int{4},
		Threads:   []int{8},
		Meshes:    []string{"1536x1536"},
		MaxRows:   8,
		Seed:      7,
	})
}

// expandBody is the request body of an expand of scs.
func expandBody(t *testing.T, scs []sweep.Scenario) []byte {
	t.Helper()
	req := expandRequest{Scenarios: make([]string, len(scs))}
	for i, sc := range scs {
		req.Scenarios[i] = sc.Key()
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postExpand(t *testing.T, ts *httptest.Server, scs []sweep.Scenario) (int, []byte) {
	t.Helper()
	return postBody(t, ts, expandBody(t, scs))
}

func postBody(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// parseStream splits an expand's NDJSON body into its result frames, in
// arrival order, and its closing summary, which must be the last line.
func parseStream(body []byte) ([]executeResult, expandSummary, error) {
	var results []executeResult
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for i, line := range lines {
		var f streamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, expandSummary{}, fmt.Errorf("line %d %q: %v", i, line, err)
		}
		switch {
		case f.Result != nil:
			results = append(results, *f.Result)
		case f.Summary != nil:
			if i != len(lines)-1 {
				return nil, expandSummary{}, fmt.Errorf("summary frame at line %d of %d", i, len(lines))
			}
			return results, *f.Summary, nil
		}
	}
	return nil, expandSummary{}, fmt.Errorf("stream ends without a summary frame:\n%s", body)
}

// expandStream posts an expand of scs, wants a 200, and parses the stream.
func expandStream(t *testing.T, ts *httptest.Server, scs []sweep.Scenario) ([]executeResult, expandSummary) {
	t.Helper()
	status, body := postExpand(t, ts, scs)
	if status != http.StatusOK {
		t.Fatalf("expand status %d: %s", status, body)
	}
	results, sum, err := parseStream(body)
	if err != nil {
		t.Fatal(err)
	}
	return results, sum
}

func TestServerEndToEnd(t *testing.T) {
	st := openStore(t)
	var sims atomic.Int64
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		return cloversim.RunScenarioContext(ctx, s)
	}
	ts := startServer(t, st, runner, 4)
	scs := smallScenarios(t)

	// Cold expand simulates every cell and persists it.
	resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(expandBody(t, scs)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("expand Content-Type %q, want application/x-ndjson", ct)
	}
	cold, sum, err := parseStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 4 || sum.OK != 4 || len(cold) != 4 {
		t.Fatalf("expand summary %+v with %d result frames, want 4 ok", sum, len(cold))
	}
	if sims.Load() != 4 {
		t.Fatalf("cold expand simulated %d, want 4", sims.Load())
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d records after expand, want 4", st.Len())
	}
	// Each frame carries the stored bits.
	for _, res := range cold {
		stored, ok := st.Lookup(res.ID)
		if !ok || len(res.Metrics) != len(stored.Metrics) {
			t.Fatalf("frame %s: %d metrics, stored %d (present %t)", res.ID, len(res.Metrics), len(stored.Metrics), ok)
		}
		for i, m := range res.Metrics {
			if want := fmt.Sprintf("%016x", math.Float64bits(stored.Metrics[i].Value)); m.Bits != want {
				t.Errorf("frame %s metric %s bits %s, want %s", res.ID, m.Name, m.Bits, want)
			}
		}
	}

	// Warm expand: zero simulations, the same frame for every cell.
	warm, sum := expandStream(t, ts, scs)
	if sims.Load() != 4 {
		t.Fatalf("warm expand simulated %d extra cells", sims.Load()-4)
	}
	if sum.OK != 4 || len(warm) != 4 {
		t.Fatalf("warm expand summary %+v with %d result frames, want 4 ok", sum, len(warm))
	}
	frames := map[string]string{}
	for _, res := range cold {
		b, _ := json.Marshal(res)
		frames[res.ID] = string(b)
	}
	for _, res := range warm {
		if b, _ := json.Marshal(res); frames[res.ID] != string(b) {
			t.Errorf("warm frame deviates from cold:\ncold: %s\nwarm: %s", frames[res.ID], b)
		}
	}

	// Health reflects occupancy.
	status, hb := get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var h Health
	if err := json.Unmarshal(hb, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Records != 4 {
		t.Errorf("healthz = %+v, want ok with 4 records", h)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts := startServer(t, openStore(t), cloversim.RunScenarioContext, 2)
	key := func(ranks, threads, maxRows int) string {
		return fmt.Sprintf("%q", sweep.Scenario{Machine: "icx", Workload: "stream", Mode: sweep.Mode{Name: "baseline"},
			Ranks: ranks, Threads: threads, MaxRows: maxRows}.Key())
	}
	// A mode the key names but whose knobs it contradicts would store
	// one configuration's result under another's label.
	modeKey := func(mode sweep.Mode) string {
		return fmt.Sprintf("%q", sweep.Scenario{Machine: "icx", Workload: "jacobi", Mode: mode, Threads: 8}.Key())
	}
	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"unknown mode", `{"scenarios":[` + modeKey(sweep.Mode{Name: "bogus", NTStores: true}) + `]}`},
		{"mode fields disagree", `{"scenarios":[` + modeKey(sweep.Mode{Name: "baseline", NTStores: true}) + `]}`},
		{"unknown field", `{"scenarios":[` + key(4, 8, 0) + `],"bogus":1}`},
		{"bad key", `{"scenarios":["machine=icx"]}`},
		{"negative ranks", `{"scenarios":[` + key(-5, 0, 0) + `]}`},
		{"negative threads", `{"scenarios":[` + key(0, -2, 0) + `]}`},
		{"maxrows below -1", `{"scenarios":[` + key(0, 0, -7) + `]}`},
		{"oversized", `{"scenarios":[` + strings.Repeat(key(4, 8, 0)+",", DefaultMaxCells) + key(4, 8, 0) + `]}`},
	}
	for _, tc := range cases {
		if status, body := postBody(t, ts, []byte(tc.body)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/expand") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/expand status %d, want 405", resp.StatusCode)
	}
	if status, _ := get(t, ts.URL+"/v1/sync"); status != http.StatusNotFound {
		t.Errorf("GET /v1/sync status %d, want 404", status)
	}
}

// TestConcurrentHammer is the acceptance-criteria load test: >= 100
// concurrent clients poll healthz and post warm expands while other
// expands simulate cold cells, all under the race detector in CI. The
// runner sleeps so simulations genuinely overlap the warm requests.
func TestConcurrentHammer(t *testing.T) {
	st := openStore(t)
	var sims atomic.Int64
	slowRunner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		time.Sleep(5 * time.Millisecond) // keep cold cells in flight while fetchers hammer
		var m sweep.Metrics
		m.Add("v", float64(s.Seed))
		m.Add("mode_len", float64(len(s.Mode.Name)))
		return m, nil
	}
	ts := startServer(t, st, slowRunner, 4)

	// Seed a few warm records so fetchers have known-good targets.
	warm := scenariosOf(t, sweep.GridSpec{Machines: []string{"icx"}, Workloads: []string{"jacobi"},
		Modes: []string{"baseline"}, Ranks: []int{1, 2, 3, 4}, Threads: []int{8}, Seed: 1})
	if _, sum := expandStream(t, ts, warm); sum.OK != 4 {
		t.Fatalf("seed expand summary %+v, want 4 ok", sum)
	}
	seeded := sims.Load()

	// All expanders request the SAME 30 cold cells: identical cells race
	// through the engine and the store concurrently.
	cold := expandBody(t, scenariosOf(t, sweep.GridSpec{Machines: []string{"icx", "spr8480"}, Workloads: []string{"stream"},
		Modes: []string{"baseline", "nt", "pf-off"}, Ranks: []int{1, 2, 3, 4, 5},
		Threads: []int{8}, Seed: 100}))

	const fetchers = 120
	const expanders = 4
	errs := make(chan error, fetchers+expanders)
	var wg sync.WaitGroup
	start := make(chan struct{})
	// post sends one expand and checks its stream reports every cell ok.
	post := func(body []byte, want int) error {
		resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		results, sum, err := parseStream(out)
		if err != nil {
			return err
		}
		if sum.OK != want || len(results) != want {
			return fmt.Errorf("summary %+v with %d result frames, want %d ok", sum, len(results), want)
		}
		return nil
	}

	healthz := func() error {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			return fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return nil
	}
	warmBodies := make([][]byte, len(warm))
	for i, sc := range warm {
		warmBodies[i] = expandBody(t, []sweep.Scenario{sc})
	}

	// Expanders keep cold cells simulating throughout.
	for e := 0; e < expanders; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			<-start
			if err := post(cold, 30); err != nil {
				errs <- fmt.Errorf("expander %d: %v", e, err)
			}
		}(e)
	}

	// >= 100 concurrent fetchers post warm expands and poll healthz.
	for f := 0; f < fetchers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				if i%3 == 2 {
					if err := healthz(); err != nil {
						errs <- fmt.Errorf("fetcher %d: healthz: %v", f, err)
						return
					}
					continue
				}
				j := (f + i) % len(warm)
				if err := post(warmBodies[j], 1); err != nil {
					errs <- fmt.Errorf("fetcher %d: warm expand of %s: %v", f, warm[j].ID(), err)
					return
				}
			}
		}(f)
	}

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The expanders' 30 distinct scenarios are stored once each despite
	// concurrent identical requests hitting the engine (the content-
	// addressed store absorbs duplicate writes; the engine may race
	// identical cells at most once per expander).
	if st.Len() != 4+30 {
		t.Errorf("store holds %d records, want 34", st.Len())
	}
	// Every cold record is now served warm.
	before := sims.Load()
	if before-seeded > expanders*30 {
		t.Errorf("%d cold simulations for 30 cells over %d expanders", before-seeded, expanders)
	}
	if err := post(cold, 30); err != nil {
		t.Errorf("warm repeat of the cold cells: %v", err)
	}
	if sims.Load() != before {
		t.Errorf("warm repeat simulated %d cells", sims.Load()-before)
	}
}

// TestExpandServesResultsDespiteStoreFailure: a store that cannot
// accept writes must not cost clients their correctly computed
// results: the stream carries them, and its summary flags the
// durability loss in store_error.
func TestExpandServesResultsDespiteStoreFailure(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, cloversim.PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := startServer(t, st, cloversim.RunScenarioContext, 2)

	results, sum := expandStream(t, ts, scenariosOf(t, sweep.GridSpec{Machines: []string{"icx"}, Workloads: []string{"jacobi"},
		Modes: []string{"baseline"}, Ranks: []int{2}, Threads: []int{4},
		Meshes: []string{"512x512"}, MaxRows: 4}))
	if sum.StoreError == "" {
		t.Error("durability loss not flagged in the summary's store_error")
	}
	if sum.Scenarios != 1 || sum.OK != 1 || len(results) != 1 || len(results[0].Metrics) == 0 {
		t.Fatalf("results lost alongside the store failure: %+v, %+v", sum, results)
	}
}

func putN(t *testing.T, st *store.Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		var m sweep.Metrics
		m.Add("v", float64(i)/3.0)
		m.Add("nan", math.NaN())
		if err := st.Put(sweep.Scenario{Machine: "m", Ranks: i + 1, Seed: 3}, m); err != nil {
			t.Fatal(err)
		}
	}
}

func nopRunner(context.Context, sweep.Scenario) (sweep.Metrics, error) {
	return nil, fmt.Errorf("compaction tests never simulate")
}

// TestAdminCompact: the admin endpoint compacts a multi-segment live
// store in place and reports the stats; the daemon keeps serving the
// same records afterwards.
func TestAdminCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// Two sealed segments from previous "processes", then the daemon's
	// own instance.
	for i := 0; i < 2; i++ {
		st, err := store.Open(dir, cloversim.PhysicsVersion)
		if err != nil {
			t.Fatal(err)
		}
		putN(t, st, i*2, 2)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, cloversim.PhysicsVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := startServer(t, st, nopRunner, 1)

	resp, err := http.Post(ts.URL+"/v1/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", resp.StatusCode)
	}
	var cs store.CompactStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsBefore != 2 || cs.SegmentsAfter != 1 || cs.Records != 4 {
		t.Fatalf("compact stats = %s, want 2 segments -> 1, 4 records", cs)
	}
	if st.Len() != 4 {
		t.Fatalf("store serves %d records after compact, want 4", st.Len())
	}
	// And the daemon still serves them over the API.
	r2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var h Health
	if err := json.NewDecoder(r2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Records != 4 {
		t.Fatalf("healthz records = %d, want 4", h.Records)
	}
}
