package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// requested cell with bit-exact metrics and per-cell errors intact, and
// onResult fires exactly once per cell. A warm repeat served from the
// store agrees cell for cell.
func TestExpandStreamRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, execPhysics)

	scs := execScenarios(4)
	cold, err := execute(c, scs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := execute(c, scs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		s, b := cold[i], warm[i]
		if s.calls != 1 || b.calls != 1 {
			t.Errorf("cell %d: onResult fired %d times cold, %d warm", i, s.calls, b.calls)
		}
		if (s.err == nil) != (b.err == nil) || errors.Is(s.err, sweep.ErrUnstarted) != errors.Is(b.err, sweep.ErrUnstarted) {
			t.Fatalf("cell %d: cold %+v vs warm %+v", i, s, b)
		}
		if s.err != nil {
			if !strings.Contains(s.err.Error(), "injected failure") {
				t.Errorf("cell %d error %v, want the injected failure", i, s.err)
			}
			continue
		}
		if len(s.m) != len(b.m) {
			t.Fatalf("cell %d: %d cold metrics vs %d warm", i, len(s.m), len(b.m))
		}
		for j := range s.m {
			sb := math.Float64bits(s.m[j].Value)
			bb := math.Float64bits(b.m[j].Value)
			if s.m[j].Name != b.m[j].Name || sb != bb {
				t.Errorf("cell %d metric %d: cold %s/%016x vs warm %s/%016x",
					i, j, s.m[j].Name, sb, b.m[j].Name, bb)
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
	err := NewClient(ts.URL, execPhysics).ExecuteScenarios(ctx, execScenarios(2), func(i int, _ sweep.Metrics, err error) {
		if err != nil {
			t.Errorf("cell %d failed: %v", i, err)
		}
		if i == 0 && once.CompareAndSwap(false, true) {
			close(firstSeen)
		}
	})
	if err != nil {
		t.Fatalf("explicit expand failed (a buffered response would deadlock here): %v", err)
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
// with any grid axis, a key list followed by more data, and an empty
// body each get a 400 that names the explicit form; the read routes of
// a result server are not served.
func TestExpandAcceptsOnlyExplicitForm(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), func(context.Context, sweep.Scenario) (sweep.Metrics, error) {
		t.Error("runner executed for a rejected body")
		return nil, nil
	}, 2).Handler())
	t.Cleanup(ts.Close)

	key := fmt.Sprintf("%q", execScenarios(1)[0].Key())
	nt, _ := sweep.ModeByName("nt")
	ntKey := sweep.Scenario{Machine: "m", Mode: nt, Ranks: 1, Seed: 3}.Key()
	bodies := map[string]string{
		"grid":           `{"machines":["icx"],"workloads":["stream"],"modes":["baseline"],"ranks":[4],"threads":[8]}`,
		"no body":        ``,
		"empty object":   `{}`,
		"empty list":     `{"scenarios":[]}`,
		"mixed machines": `{"scenarios":[` + key + `],"machines":["icx"]}`,
		"trailing data":  `{"scenarios":[` + key + `]} trailing garbage`,
		"second object":  `{"scenarios":[` + key + `]} {"scenarios":[` + key + `]}`,
		"stray brace":    `{"scenarios":[` + key + `]}}`,
		// Another spelling of a canonical key's value.
		"noncanonical key": fmt.Sprintf(`{"scenarios":[%q]}`, strings.Replace(ntKey, " nt=true ", " nt=1 ", 1)),
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
	var one sweep.Metrics
	one.Add("v", 1)
	rec, err := store.EncodeRecord(execPhysics, scs[0], one)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"stream":{"physics":%q,"scenarios":2}}`+"\n", execPhysics)
		fmt.Fprintf(w, `{"result":{"id":%q,"record":%s}}`+"\n", scs[0].ID(), bytes.TrimSpace(rec))
		// No summary: the worker died mid-campaign.
	}))
	t.Cleanup(ts.Close)

	var surfaced int
	err = NewClient(ts.URL, execPhysics).ExecuteScenarios(context.Background(), scs, func(i int, m sweep.Metrics, _ error) {
		surfaced++
		if v, ok := m.Get("v"); !ok || v != 1.0 {
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
	if _, err := execute(NewClient(ts.URL, "other-physics"), execScenarios(1)); err == nil || !strings.Contains(err.Error(), "physics") {
		t.Fatalf("foreign-physics stream error = %v, want physics mismatch", err)
	}
}

// TestClientRejectsRecordsFailingTheGate: a success frame's record
// passes store.DecodeRecord under the client's physics and belongs to
// the frame's cell, or the whole call fails as an error of the worker,
// naming it, and the cell is not delivered. One fake worker per case: a
// missing record, a key that hashes to another ID, another cell's
// record, a record of other physics, and bits that do not decode.
func TestClientRejectsRecordsFailingTheGate(t *testing.T) {
	scs := execScenarios(2)
	sc, other := scs[0], scs[1]
	var one sweep.Metrics
	one.Add("v", 1)
	record := func(physics string, of sweep.Scenario) string {
		rec, err := store.EncodeRecord(physics, of, one)
		if err != nil {
			t.Fatal(err)
		}
		return string(bytes.TrimSpace(rec))
	}
	replace := func(s, old, new string) string {
		if !strings.Contains(s, old) {
			t.Fatalf("%s holds no %s", s, old)
		}
		return strings.Replace(s, old, new, 1)
	}
	for name, frame := range map[string]string{
		"missing record":           fmt.Sprintf(`{"id":%q}`, sc.ID()),
		"key hashes to another ID": fmt.Sprintf(`{"id":%q,"record":%s}`, sc.ID(), replace(record(execPhysics, other), other.ID(), sc.ID())),
		"record of another cell":   fmt.Sprintf(`{"id":%q,"record":%s}`, sc.ID(), record(execPhysics, other)),
		"other physics":            fmt.Sprintf(`{"id":%q,"record":%s}`, sc.ID(), record("pother", sc)),
		"undecodable bits":         fmt.Sprintf(`{"id":%q,"record":%s}`, sc.ID(), replace(record(execPhysics, sc), `"bits":"3ff0000000000000"`, `"bits":"3ff0zz"`)),
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintf(w, `{"stream":{"physics":%q,"scenarios":1}}`+"\n", execPhysics)
			fmt.Fprintf(w, `{"result":%s}`+"\n", frame)
			fmt.Fprintf(w, `{"summary":{"scenarios":1,"ok":1}}`+"\n")
		}))
		res, err := execute(NewClient(ts.URL, execPhysics), []sweep.Scenario{sc})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), ts.URL) {
			t.Errorf("%s: error %v, want a worker-level error naming %s", name, err, ts.URL)
		}
		if res[0].calls != 0 {
			t.Errorf("%s: cell delivered as %+v", name, res[0])
		}
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
	c := NewClient(ts.URL, execPhysics)

	if _, err := c.Healthz(context.Background()); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized healthz error = %v, want explicit limit report", err)
	}

	old := maxExpandBytes
	maxExpandBytes = 256
	t.Cleanup(func() { maxExpandBytes = old })
	if _, err := execute(c, execScenarios(1)); err == nil || !strings.Contains(err.Error(), "limit") {
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
	c := NewClient(ts.URL, execPhysics)

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxCells != 2 {
		t.Errorf("healthz max_cells = %d, want 2", h.MaxCells)
	}
	if _, err := execute(c, execScenarios(3)); err == nil || !strings.Contains(err.Error(), "limit 2") {
		t.Errorf("3-cell expand against cap 2: err = %v, want limit rejection", err)
	}
	if _, err := execute(c, execScenarios(2)); err != nil {
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
	maxExpandBytes = 600 // one result frame is ~300 bytes; 20 total far more
	t.Cleanup(func() { maxExpandBytes = old })

	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)

	out, err := execute(NewClient(ts.URL, execPhysics), execScenarios(20))
	if err != nil {
		t.Fatalf("stream with total size beyond the per-frame cap failed: %v", err)
	}
	for i, r := range out {
		if r.err == nil && r.m == nil {
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
		fmt.Fprintf(w, `{"result":{"id":%q,"error":%q}}`+"\n", scs[0].ID(), strings.Repeat("x", maxExpandBytes))
	}))
	t.Cleanup(ts.Close)
	if _, err := execute(NewClient(ts.URL, execPhysics), scs); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized frame error = %v, want explicit limit report", err)
	}
}

// TestHealthzDefaultMaxCells: an unconfigured server advertises the
// package default, so old deployments keep their historical cap.
func TestHealthzDefaultMaxCells(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), streamTestRunner, 2).Handler())
	t.Cleanup(ts.Close)
	h, err := NewClient(ts.URL, execPhysics).Healthz(context.Background())
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
	c := NewClient(ts.URL, execPhysics)
	scs := execScenarios(n)
	if _, err := execute(c, scs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ExecuteScenarios(context.Background(), scs, func(int, sweep.Metrics, error) {}); err != nil {
			b.Fatal(err)
		}
	}
}
