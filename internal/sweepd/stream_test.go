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
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
)

// streamTestRunner exercises the encodings a stream must carry: bit-
// exact finite values, NaN, and a per-cell failure.
func streamTestRunner(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
	if s.Ranks == 3 {
		return nil, fmt.Errorf("injected failure")
	}
	var m sweep.Metrics
	m.Add("v", float64(s.Ranks)/3.0)
	if s.Ranks == 2 {
		m.Add("odd", math.NaN())
	}
	return m, nil
}

// TestExpandStreamRoundTrip: an explicit expand delivers one result per
// requested cell (dups included), request-ordered in the returned
// slice, with bit-exact metrics and per-cell errors intact, and
// onResult fires exactly once per cell. A warm repeat served from the
// store agrees cell for cell.
func TestExpandStreamRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Physics = execPhysics

	scs := execScenarios(4)
	scs = append(scs, scs[0]) // duplicate cell: one frame per requested index
	var fired atomic.Int64
	cold, err := c.ExecuteScenarios(context.Background(), scs, func(i int, r ExecResult) {
		fired.Add(1)
		if want := scs[i].ID(); r.ID != want {
			t.Errorf("onResult index %d carries %s, want %s", i, r.ID, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() != int64(len(scs)) {
		t.Errorf("onResult fired %d times for %d cells", fired.Load(), len(scs))
	}
	warm, err := c.ExecuteScenarios(context.Background(), scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		s, b := cold[i], warm[i]
		if s.ID != b.ID || s.Unstarted != b.Unstarted || (s.Err == nil) != (b.Err == nil) {
			t.Fatalf("cell %d: cold %+v vs warm %+v", i, s, b)
		}
		if s.Err != nil {
			if !strings.Contains(s.Err.Error(), "injected failure") {
				t.Errorf("cell %d error %v, want the injected failure", i, s.Err)
			}
			continue
		}
		if len(s.Metrics) != len(b.Metrics) {
			t.Fatalf("cell %d: %d cold metrics vs %d warm", i, len(s.Metrics), len(b.Metrics))
		}
		for j := range s.Metrics {
			sb := math.Float64bits(s.Metrics[j].Value)
			bb := math.Float64bits(b.Metrics[j].Value)
			if s.Metrics[j].Name != b.Metrics[j].Name || sb != bb {
				t.Errorf("cell %d metric %d: cold %s/%016x vs warm %s/%016x",
					i, j, s.Metrics[j].Name, sb, b.Metrics[j].Name, bb)
			}
		}
	}
}

// TestExpandStreamIncremental is the point of the protocol: a cell's
// frame must arrive while other cells are still simulating. The second
// cell blocks until the client has SEEN the first cell's result — if
// the server buffered the response, this deadlocks (and the timeout
// fails the test).
func TestExpandStreamIncremental(t *testing.T) {
	firstSeen := make(chan struct{})
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Ranks == 2 {
			select {
			case <-firstSeen:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var m sweep.Metrics
		m.Add("v", float64(s.Ranks))
		return m, nil
	}
	ts := httptest.NewServer(New(execStore(t), runner, 2).Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var once atomic.Bool
	res, err := NewClient(ts.URL).ExecuteScenarios(ctx, execScenarios(2), func(i int, r ExecResult) {
		if r.ID == execScenarios(1)[0].ID() && once.CompareAndSwap(false, true) {
			close(firstSeen)
		}
	})
	if err != nil {
		t.Fatalf("explicit expand failed (a buffered response would deadlock here): %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("cell %d failed: %v", i, r.Err)
		}
	}
}

// TestExpandEncodingFollowsRequestForm pins the rule of /v1/expand:
// the request form alone fixes the encoding. The explicit form gets
// NDJSON ending in a summary frame whatever the Accept header asks for,
// including none at all and campaign JSON.
func TestExpandEncodingFollowsRequestForm(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)

	scs := execScenarios(2)
	body, err := json.Marshal(expandRequest{Scenarios: []string{scs[0].Key(), scs[1].Key()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", "application/json", "application/x-ndjson"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/expand", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: expand status %d: %s", accept, resp.StatusCode, out)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Accept %q: expand Content-Type %q, want application/x-ndjson", accept, ct)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var last streamFrame
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("Accept %q: last line %q: %v", accept, lines[len(lines)-1], err)
		}
		if last.Summary == nil || last.Summary.OK != 2 || last.Summary.Failed != 0 {
			t.Errorf("Accept %q: expand ends with %q, want a summary frame with 2 ok, 0 failed", accept, lines[len(lines)-1])
		}
	}
}

// TestExpandAcceptsOnlyExplicitForm: POST /v1/expand takes a list of
// scenario keys and nothing else. A grid-shaped body, a key list mixed
// with any grid axis, and an empty body each get a 400 that names the
// explicit form; the read routes of a result server are not served.
func TestExpandAcceptsOnlyExplicitForm(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), func(context.Context, sweep.Scenario) (sweep.Metrics, error) {
		t.Error("runner executed for a rejected body")
		return nil, nil
	}, 2).Handler())
	t.Cleanup(ts.Close)

	key := fmt.Sprintf("%q", execScenarios(1)[0].Key())
	bodies := map[string]string{
		"grid":           `{"machines":["icx"],"workloads":["stream"],"modes":["baseline"],"ranks":[4],"threads":[8]}`,
		"no body":        ``,
		"empty object":   `{}`,
		"empty list":     `{"scenarios":[]}`,
		"mixed machines": `{"scenarios":[` + key + `],"machines":["icx"]}`,
	}
	for axis, value := range map[string]string{
		"workloads": `["stream"]`, "modes": `["baseline"]`, "ranks": `[4]`, "meshes": `["128x64"]`,
		"threads": `[8]`, "maxrows": `8`, "seed": `1`,
	} {
		bodies["mixed "+axis] = `{"scenarios":[` + key + `],"` + axis + `":` + value + `}`
	}
	for name, body := range bodies {
		resp, err := ts.Client().Post(ts.URL+"/v1/expand", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(errorBody(out), `want {"scenarios": [...]} listing canonical scenario keys`) {
			t.Errorf("%s: status %d, body %s; want 400 naming the explicit form", name, resp.StatusCode, out)
		}
	}

	for _, path := range []string{"/v1/scenarios", "/v1/results/" + execScenarios(1)[0].ID()} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestExpandStreamTruncated: a stream that dies before its summary
// frame must error as truncated — the surfaced prefix is real, but the
// batch is unaccounted for and must never pass as complete.
func TestExpandStreamTruncated(t *testing.T) {
	scs := execScenarios(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"stream":{"physics":%q,"scenarios":2}}`+"\n", execPhysics)
		fmt.Fprintf(w, `{"result":{"id":%q,"key":%q,"metrics":[{"name":"v","bits":"3ff0000000000000"}]}}`+"\n",
			scs[0].ID(), scs[0].Key())
		// No summary: the worker died mid-campaign.
	}))
	t.Cleanup(ts.Close)

	var surfaced int
	_, err := NewClient(ts.URL).ExecuteScenarios(context.Background(), scs, func(i int, r ExecResult) {
		surfaced++
		if v, ok := r.Metrics.Get("v"); !ok || v != 1.0 {
			t.Errorf("surfaced prefix cell carries v=%v, want 1", v)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream error = %v, want truncation report", err)
	}
	if surfaced != 1 {
		t.Errorf("surfaced %d cells before truncation, want 1", surfaced)
	}
}

// TestExpandStreamPhysicsMismatch: the header frame lets the client
// fail fast on foreign physics instead of discovering it at the end.
func TestExpandStreamPhysicsMismatch(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Physics = "other-physics"
	if _, err := c.ExecuteScenarios(context.Background(), execScenarios(1), nil); err == nil || !strings.Contains(err.Error(), "physics") {
		t.Fatalf("foreign-physics stream error = %v, want physics mismatch", err)
	}
}

// TestClientOversizedResponses is the regression lock for the bounded-
// read fix: a body over the limit must surface as an explicit
// oversized-response error on both endpoints, not be silently cut and
// reported as a misleading parse failure.
func TestClientOversizedResponses(t *testing.T) {
	huge := strings.Repeat(" ", int(maxHealthzBytes)+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"padding":%q}`, huge)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, err := c.Healthz(context.Background()); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized healthz error = %v, want explicit limit report", err)
	}

	old := maxExpandBytes
	maxExpandBytes = 256
	t.Cleanup(func() { maxExpandBytes = old })
	if _, err := c.ExecuteScenarios(context.Background(), execScenarios(1), nil); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized expand error = %v, want explicit limit report", err)
	}
}

// TestMaxCellsConfigurable: the per-expand cap is a Server knob,
// enforced on explicit batches and advertised in healthz so
// dispatchers can clamp chunks up front. The request body cap grows
// with it: a server configured for 10000 cells accepts 8000 keys, a
// body past the 1 MiB a fixed cap used to allow, and a body past the
// derived cap is still a 400.
func TestMaxCellsConfigurable(t *testing.T) {
	srv := New(execStore(t), streamTestRunner, 2)
	srv.MaxCells = 2
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxCells != 2 {
		t.Errorf("healthz max_cells = %d, want 2", h.MaxCells)
	}
	if _, err := c.ExecuteScenarios(context.Background(), execScenarios(3), nil); err == nil || !strings.Contains(err.Error(), "limit 2") {
		t.Errorf("3-cell expand against cap 2: err = %v, want limit rejection", err)
	}
	if _, err := c.ExecuteScenarios(context.Background(), execScenarios(2), nil); err != nil {
		t.Errorf("2-cell expand within cap failed: %v", err)
	}

	srv = New(execStore(t), streamTestRunner, 2)
	srv.MaxCells = 10000
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	key := fmt.Sprintf("%q", sweep.Scenario{Machine: "spr8470+s", Workload: "cloverleaf", Mode: sweep.Mode{Name: "speci2m-off", SpecI2MOff: true},
		Ranks: 104, Mesh: sweep.Mesh{X: 15360, Y: 15360}, Threads: 1, MaxRows: 32, Seed: 0xdeadbeef}.Key())
	body := `{"scenarios":[` + strings.Repeat(key+",", 7999) + key + `]}`
	if len(body) <= 1<<20 {
		t.Fatalf("8000-key body is %d bytes; it must pass 1 MiB to test the cap", len(body))
	}
	status, out := postBody(t, ts, []byte(body))
	if status != http.StatusOK {
		t.Fatalf("8000-key expand (%d bytes) under max cells 10000: status %d (%.200s)", len(body), status, out)
	}
	results, _, err := parseStream(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8000 {
		t.Errorf("8000-key expand answered %d results", len(results))
	}

	limit := srv.MaxCells * keyBytes
	body = `{"scenarios":[` + key + strings.Repeat(" ", limit) + `]}`
	if status, out := postBody(t, ts, []byte(body)); status != http.StatusBadRequest || !strings.Contains(string(out), "too large") {
		t.Errorf("%d-byte body against a %d-byte cap: status %d (%.200s), want 400 naming the size", len(body), limit, status, out)
	}
}

// TestStreamTotalBeyondFrameCap is the regression for the stream-size
// bound: maxExpandBytes used to cap the ENTIRE NDJSON stream, so a
// legitimate batch whose frames TOGETHER passed the limit failed as a
// bogus decode error even though each frame — the thing that actually
// occupies client memory — was tiny. The bound is per frame now: many
// small frames totaling far past the cap must stream through.
func TestStreamTotalBeyondFrameCap(t *testing.T) {
	old := maxExpandBytes
	maxExpandBytes = 600 // one result frame is ~150 bytes; 20 total far more
	t.Cleanup(func() { maxExpandBytes = old })

	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Physics = execPhysics

	scs := execScenarios(20)
	out, err := c.ExecuteScenarios(context.Background(), scs, nil)
	if err != nil {
		t.Fatalf("stream with total size beyond the per-frame cap failed: %v", err)
	}
	if len(out) != len(scs) {
		t.Fatalf("delivered %d of %d results", len(out), len(scs))
	}
	for i, r := range out {
		if r.Err == nil && r.Metrics == nil {
			t.Fatalf("result %d empty", i)
		}
	}
}

// TestStreamOversizedFrameRejected: the per-frame bound still bites —
// a single frame past the cap fails loudly instead of ballooning the
// client's memory, and the error names the limit.
func TestStreamOversizedFrameRejected(t *testing.T) {
	old := maxExpandBytes
	maxExpandBytes = 512
	t.Cleanup(func() { maxExpandBytes = old })

	scs := execScenarios(1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"stream":{"physics":%q,"scenarios":1}}`+"\n", execPhysics)
		fmt.Fprintf(w, `{"result":{"id":%q,"key":%q,"error":%q}}`+"\n",
			scs[0].ID(), scs[0].Key(), strings.Repeat("x", int(maxExpandBytes)))
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Physics = execPhysics
	if _, err := c.ExecuteScenarios(context.Background(), scs, nil); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized frame error = %v, want explicit limit report", err)
	}
}

// TestHealthzDefaultMaxCells: an unconfigured server advertises the
// package default, so old deployments keep their historical cap.
func TestHealthzDefaultMaxCells(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	h, err := NewClient(ts.URL).Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxCells != DefaultMaxCells {
		t.Errorf("healthz max_cells = %d, want default %d", h.MaxCells, DefaultMaxCells)
	}
}

// BenchmarkExpandStreaming measures one warm explicit expand round
// trip: the store is pre-populated, so the numbers isolate transport
// and encode/decode, not simulation.
func BenchmarkExpandStreaming(b *testing.B) {
	const n = 512
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		m.Add("v", float64(s.Ranks)/3.0)
		m.Add("w", float64(s.Ranks)*1.5)
		return m, nil
	}
	st, err := store.Open(filepath.Join(b.TempDir(), "store"), execPhysics)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(New(st, runner, 4).Handler())
	b.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	scs := execScenarios(n)
	if _, err := c.ExecuteScenarios(context.Background(), scs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ExecuteScenarios(context.Background(), scs, func(int, ExecResult) {})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != n {
			b.Fatalf("%d results", len(res))
		}
	}
}
