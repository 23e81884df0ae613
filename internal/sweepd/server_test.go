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

// smallSpec is a fast real-physics grid: 2 machines x 2 modes, tiny mesh.
func smallSpec() GridSpec {
	return GridSpec{
		Machines:  []string{"icx", "spr8480"},
		Workloads: []string{"jacobi"},
		Modes:     []string{"baseline", "nt"},
		Ranks:     []int{4},
		Threads:   []int{8},
		Meshes:    []string{"1536x1536"},
		MaxRows:   8,
		Seed:      7,
	}
}

func postExpand(t *testing.T, ts *httptest.Server, spec GridSpec) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
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

// expandResponse mirrors the campaign JSON shape sweep.JSONEmitter writes.
type expandResponse struct {
	Scenarios int `json:"scenarios"`
	Failed    int `json:"failed"`
	Results   []struct {
		ID      string `json:"id"`
		Machine string `json:"machine"`
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

func TestServerEndToEnd(t *testing.T) {
	st := openStore(t)
	var sims atomic.Int64
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		return cloversim.RunScenarioContext(ctx, s)
	}
	ts := startServer(t, st, runner, 4)

	// Cold expand simulates every cell and persists it.
	status, body := postExpand(t, ts, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("expand status %d: %s", status, body)
	}
	var exp expandResponse
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 4 || exp.Failed != 0 {
		t.Fatalf("expand reported %d scenarios %d failed, want 4/0", exp.Scenarios, exp.Failed)
	}
	if sims.Load() != 4 {
		t.Fatalf("cold expand simulated %d, want 4", sims.Load())
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d records after expand, want 4", st.Len())
	}

	// Warm expand: zero simulations, identical result bytes.
	status, warmBody := postExpand(t, ts, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("warm expand status %d", status)
	}
	if sims.Load() != 4 {
		t.Fatalf("warm expand simulated %d extra cells", sims.Load()-4)
	}
	if !bytes.Equal(body, warmBody) {
		t.Errorf("warm expand response deviates from cold:\ncold:\n%s\nwarm:\n%s", body, warmBody)
	}

	// Listing is complete and deterministic.
	status, listBody := get(t, ts.URL+"/v1/scenarios")
	if status != http.StatusOK {
		t.Fatalf("scenarios status %d", status)
	}
	var list scenariosResponse
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 4 || len(list.Scenarios) != 4 {
		t.Fatalf("listing has %d scenarios, want 4", list.Count)
	}
	if list.Physics != cloversim.PhysicsVersion {
		t.Errorf("listing physics %q, want %q", list.Physics, cloversim.PhysicsVersion)
	}
	status, listBody2 := get(t, ts.URL+"/v1/scenarios")
	if status != http.StatusOK || !bytes.Equal(listBody, listBody2) {
		t.Error("repeated listing not byte-stable")
	}

	// Fetch by config hash serves bit-exact values.
	rec0 := list.Scenarios[0]
	status, recBody := get(t, ts.URL+"/v1/results/"+rec0.ID)
	if status != http.StatusOK {
		t.Fatalf("result fetch status %d", status)
	}
	var jr jsonRecord
	if err := json.Unmarshal(recBody, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID != rec0.ID || len(jr.Metrics) == 0 {
		t.Fatalf("fetched record %+v malformed", jr)
	}
	stored, ok := st.Lookup(rec0.ID)
	if !ok {
		t.Fatal("listed record missing from store")
	}
	for i, m := range jr.Metrics {
		if want := fmt.Sprintf("%016x", math.Float64bits(stored.Metrics[i].Value)); m.Bits != want {
			t.Errorf("metric %s bits %s, want %s", m.Name, m.Bits, want)
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
	cases := []struct {
		name string
		spec string
	}{
		{"bad json", "{"},
		{"unknown field", `{"bogus":1}`},
		{"unknown machine", `{"machines":["nope"]}`},
		{"unknown workload", `{"workloads":["nope"]}`},
		{"unknown mode", `{"modes":["nope"]}`},
		{"bad mesh", `{"meshes":["x"]}`},
		{"negative ranks", `{"machines":["icx"],"workloads":["stream"],"modes":["baseline"],"ranks":[-5]}`},
		{"negative threads", `{"machines":["icx"],"workloads":["stream"],"modes":["baseline"],"threads":[-2]}`},
		{"maxrows below -1", `{"machines":["icx"],"workloads":["stream"],"modes":["baseline"],"maxrows":-7}`},
		{"explicit negative ranks", `{"scenarios":["machine=icx workload=stream mode=baseline nt=false opt=false i2moff=false pfoff=false ranks=-5 mesh=default threads=0 maxrows=0 seed=0x0"]}`},
		{"oversized grid", `{"ranks":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18],
			"threads":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],
			"meshes":["1x1","2x2","3x3","4x4","5x5","6x6","7x7","8x8","9x9","10x10","11x11","12x12","13x13","14x14"]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader([]byte(tc.spec)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	if status, _ := get(t, ts.URL+"/v1/results/ffffffffffff"); status != http.StatusNotFound {
		t.Errorf("missing result fetch status %d, want 404", status)
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
// concurrent result fetches (plus listings) succeed while expand
// requests are simulating cold cells, all under the race detector in
// CI. The runner sleeps so simulations genuinely overlap the reads.
func TestConcurrentHammer(t *testing.T) {
	st := openStore(t)
	var sims atomic.Int64
	slowRunner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		time.Sleep(5 * time.Millisecond) // keep cold cells in flight while readers hammer
		var m sweep.Metrics
		m.Add("v", float64(s.Seed))
		m.Add("mode_len", float64(len(s.Mode.Name)))
		return m, nil
	}
	ts := startServer(t, st, slowRunner, 4)

	// Seed a few warm records so fetches have known-good targets.
	warm := GridSpec{Machines: []string{"icx"}, Workloads: []string{"jacobi"},
		Modes: []string{"baseline"}, Ranks: []int{1, 2, 3, 4}, Threads: []int{8}, Seed: 1}
	if status, body := postExpand(t, ts, warm); status != http.StatusOK {
		t.Fatalf("seed expand status %d: %s", status, body)
	}
	ids := make([]string, 0, 4)
	for _, rec := range st.Records() {
		ids = append(ids, rec.ID)
	}
	if len(ids) != 4 {
		t.Fatalf("seeded %d records, want 4", len(ids))
	}

	const fetchers = 120
	const expanders = 4
	errs := make(chan error, fetchers+expanders)
	var wg sync.WaitGroup
	start := make(chan struct{})

	// Expanders keep cold cells simulating throughout.
	for e := 0; e < expanders; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			<-start
			// All expanders request the SAME grid: identical cold cells
			// race through the engine and the store concurrently.
			spec := GridSpec{Machines: []string{"icx", "spr8480"}, Workloads: []string{"stream"},
				Modes: []string{"baseline", "nt", "pf-off"}, Ranks: []int{1, 2, 3, 4, 5},
				Threads: []int{8}, Seed: 100}
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("expander %d: status %d: %s", e, resp.StatusCode, out)
				return
			}
			var exp expandResponse
			if err := json.Unmarshal(out, &exp); err != nil {
				errs <- fmt.Errorf("expander %d: %v", e, err)
				return
			}
			if exp.Failed != 0 {
				errs <- fmt.Errorf("expander %d: %d failed scenarios", e, exp.Failed)
			}
		}(e)
	}

	// >= 100 concurrent readers fetch stored results and listings.
	for f := 0; f < fetchers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				var url string
				switch i % 3 {
				case 0, 1:
					url = ts.URL + "/v1/results/" + ids[(f+i)%len(ids)]
				case 2:
					url = ts.URL + "/v1/scenarios"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- fmt.Errorf("fetcher %d: %v", f, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("fetcher %d: %v", f, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("fetcher %d: status %d for %s: %s", f, resp.StatusCode, url, body)
					return
				}
				if !json.Valid(body) {
					errs <- fmt.Errorf("fetcher %d: invalid JSON from %s", f, url)
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

	// The expanders' 30 distinct scenarios simulated once each despite
	// concurrent identical requests hitting the engine (the content-
	// addressed store absorbs duplicate writes; the engine may race
	// identical cells at most once per expander).
	if st.Len() != 4+30 {
		t.Errorf("store holds %d records, want 34", st.Len())
	}
	// Every cold record is now fetchable.
	for _, rec := range st.Records() {
		if status, _ := get(t, ts.URL+"/v1/results/"+rec.ID); status != http.StatusOK {
			t.Errorf("stored record %s not servable after hammer", rec.ID)
		}
	}
}

// TestExpandServesResultsDespiteStoreFailure: a store that cannot
// accept writes must not cost clients their correctly computed
// campaign — the response is 200 with the durability loss flagged in
// the X-Store-Error header.
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

	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"jacobi"},
		Modes: []string{"baseline"}, Ranks: []int{2}, Threads: []int{4},
		Meshes: []string{"512x512"}, MaxRows: 4}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand with unwritable store status %d, want 200: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Store-Error") == "" {
		t.Error("durability loss not flagged in X-Store-Error header")
	}
	var exp expandResponse
	if err := json.Unmarshal(out, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 1 || exp.Failed != 0 || len(exp.Results[0].Metrics) == 0 {
		t.Fatalf("campaign results lost alongside the store failure: %s", out)
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
