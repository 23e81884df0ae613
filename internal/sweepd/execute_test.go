package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
)

const execPhysics = "pexec"

func execStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), execPhysics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// cellResult is one cell's outcome as ExecuteScenarios reports it, and
// how often its onResult fired.
type cellResult struct {
	m     sweep.Metrics
	err   error
	calls int
}

// execute runs scs on c and returns each cell's outcome in request order.
func execute(c *Client, scs []sweep.Scenario) ([]cellResult, error) {
	out := make([]cellResult, len(scs))
	err := c.ExecuteScenarios(context.Background(), scs, func(i int, m sweep.Metrics, err error) {
		out[i] = cellResult{m, err, out[i].calls + 1}
	})
	return out, err
}

func execScenarios(n int) []sweep.Scenario {
	out := make([]sweep.Scenario, n)
	for i := range out {
		out[i] = sweep.Scenario{Machine: "m", Ranks: i + 1, Seed: 3}
	}
	return out
}

// TestExpandExplicitScenarios: the explicit form executes cells the
// worker has never seen, responds with bit-exact metrics in request
// order, writes through to the store, and serves repeats warm.
func TestExpandExplicitScenarios(t *testing.T) {
	var sims atomic.Int64
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		var m sweep.Metrics
		m.Add("v", float64(s.Ranks)/3.0)
		return m, nil
	}
	st := execStore(t)
	ts := httptest.NewServer(New(st, runner, 2).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, execPhysics)

	scs := execScenarios(4)
	res, err := execute(c, scs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("cell %d failed: %v", i, r.err)
		}
		v, ok := r.m.Get("v")
		if !ok || v != float64(scs[i].Ranks)/3.0 {
			t.Errorf("cell %d metric v = %v, want bit-exact %v", i, v, float64(scs[i].Ranks)/3.0)
		}
	}
	if sims.Load() != 4 {
		t.Fatalf("%d simulations, want 4", sims.Load())
	}
	if st.Len() != 4 {
		t.Errorf("store holds %d records after explicit expand, want 4", st.Len())
	}

	// Warm repeat: served from the store, zero new simulations.
	if _, err := execute(c, scs); err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Errorf("warm repeat simulated %d extra cells, want 0", sims.Load()-4)
	}
}

// TestExpandExplicitNaNMetrics: NaN/Inf metric values must survive the
// wire — the decimal mirror drops them (JSON cannot carry them, and a
// raw NaN would abort the whole response encode mid-body, cascading
// into a worker-level failure), while the authoritative bits round-trip
// them exactly.
func TestExpandExplicitNaNMetrics(t *testing.T) {
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		m.Add("nan", math.NaN())
		m.Add("inf", math.Inf(1))
		m.Add("finite", 0.5)
		return m, nil
	}
	ts := httptest.NewServer(New(execStore(t), runner, 2).Handler())
	t.Cleanup(ts.Close)

	res, err := execute(NewClient(ts.URL, execPhysics), execScenarios(1))
	if err != nil {
		t.Fatalf("NaN metrics broke the batch: %v", err)
	}
	if res[0].err != nil {
		t.Fatalf("cell failed: %v", res[0].err)
	}
	if v, ok := res[0].m.Get("nan"); !ok || !math.IsNaN(v) {
		t.Errorf("nan metric = %v (present %t), want NaN", v, ok)
	}
	if v, ok := res[0].m.Get("inf"); !ok || !math.IsInf(v, 1) {
		t.Errorf("inf metric = %v (present %t), want +Inf", v, ok)
	}
	if v, _ := res[0].m.Get("finite"); v != 0.5 {
		t.Errorf("finite metric = %v, want 0.5", v)
	}
}

// TestExpandExplicitPerCellFailure: a failing cell rides in its result
// (Err set, Unstarted false) without failing the batch.
func TestExpandExplicitPerCellFailure(t *testing.T) {
	boom := errors.New("injected failure")
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Ranks == 2 {
			return nil, boom
		}
		var m sweep.Metrics
		m.Add("v", 1)
		return m, nil
	}
	ts := httptest.NewServer(New(execStore(t), runner, 2).Handler())
	t.Cleanup(ts.Close)

	res, err := execute(NewClient(ts.URL, execPhysics), execScenarios(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		failed := i == 1 // ranks == 2
		if failed {
			if r.err == nil || !strings.Contains(r.err.Error(), "injected failure") {
				t.Errorf("cell %d error %v, want the injected failure", i, r.err)
			}
			if errors.Is(r.err, sweep.ErrUnstarted) {
				t.Errorf("cell %d marked unstarted; it genuinely failed", i)
			}
		} else if r.err != nil {
			t.Errorf("cell %d failed: %v", i, r.err)
		}
	}
}

// TestExpandExplicitRejects: malformed keys and bodies that mix grid
// axes into the key list are client errors, not executions.
func TestExpandExplicitRejects(t *testing.T) {
	ts := httptest.NewServer(New(execStore(t), func(context.Context, sweep.Scenario) (sweep.Metrics, error) {
		t.Error("runner executed for a rejected spec")
		return nil, nil
	}, 2).Handler())
	t.Cleanup(ts.Close)

	key := execScenarios(1)[0].Key()
	for name, body := range map[string]string{
		"bad key":    `{"scenarios": ["not a key"]}`,
		"mixed form": fmt.Sprintf(`{"machines": ["icx"], "scenarios": [%q]}`, key),
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/expand", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHealthzCapacityAndInflight: healthz must advertise the daemon's
// simulation capacity and the number of expand requests in flight —
// the two numbers the dispatch layer shards by.
func TestHealthzCapacityAndInflight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		close(started)
		<-release
		var m sweep.Metrics
		m.Add("v", 1)
		return m, nil
	}
	ts := httptest.NewServer(New(execStore(t), runner, 3).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, execPhysics)

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Capacity != 3 || h.InFlight != 0 || h.Physics != execPhysics {
		t.Fatalf("idle healthz = %+v, want ok, capacity 3, inflight 0, physics %s", h, execPhysics)
	}

	// Park one expand in the runner and observe it in healthz.
	done := make(chan error, 1)
	go func() {
		_, err := execute(c, execScenarios(1))
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("expand never reached the runner")
	}
	if h, err = c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.InFlight != 1 {
		t.Errorf("healthz inflight = %d with one parked expand, want 1", h.InFlight)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClientPromotesSchemelessURLs locks the -workers ergonomics:
// "host:port" means http.
func TestClientPromotesSchemelessURLs(t *testing.T) {
	for in, want := range map[string]string{
		"host:8075":          "http://host:8075",
		"http://host:8075/":  "http://host:8075",
		"https://host":       "https://host",
		" host.example.com ": "http://host.example.com",
	} {
		if got := NewClient(in, execPhysics).BaseURL; got != want {
			t.Errorf("NewClient(%q).BaseURL = %q, want %q", in, got, want)
		}
	}
}

// TestExplicitSpecJSONShape pins the wire form of the expand request
// so the client and server cannot drift: scenarios ride under the
// "scenarios" key, the body's one field.
func TestExplicitSpecJSONShape(t *testing.T) {
	key := execScenarios(1)[0].Key()
	buf, err := json.Marshal(expandRequest{Scenarios: []string{key}})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"scenarios":[%q]}`, key)
	if string(buf) != want {
		t.Errorf("explicit spec encodes as %s, want %s", buf, want)
	}
}
