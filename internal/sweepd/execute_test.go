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
	c := NewClient(ts.URL)

	scs := execScenarios(4)
	res, err := c.ExecuteScenarios(context.Background(), scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		if want := scs[i].ID(); r.ID != want {
			t.Errorf("result %d is %s, want %s (request order)", i, r.ID, want)
		}
		v, ok := r.Metrics.Get("v")
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
	if _, err := c.ExecuteScenarios(context.Background(), scs, nil); err != nil {
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

	res, err := NewClient(ts.URL).ExecuteScenarios(context.Background(), execScenarios(1), nil)
	if err != nil {
		t.Fatalf("NaN metrics broke the batch: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("cell failed: %v", res[0].Err)
	}
	if v, ok := res[0].Metrics.Get("nan"); !ok || !math.IsNaN(v) {
		t.Errorf("nan metric = %v (present %t), want NaN", v, ok)
	}
	if v, ok := res[0].Metrics.Get("inf"); !ok || !math.IsInf(v, 1) {
		t.Errorf("inf metric = %v (present %t), want +Inf", v, ok)
	}
	if v, _ := res[0].Metrics.Get("finite"); v != 0.5 {
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

	res, err := NewClient(ts.URL).ExecuteScenarios(context.Background(), execScenarios(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		failed := i == 1 // ranks == 2
		if failed {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "injected failure") {
				t.Errorf("cell %d error %v, want the injected failure", i, r.Err)
			}
			if r.Unstarted {
				t.Errorf("cell %d marked unstarted; it genuinely failed", i)
			}
		} else if r.Err != nil {
			t.Errorf("cell %d failed: %v", i, r.Err)
		}
	}
}

// TestExpandExplicitRejects: malformed keys and mixed grid/explicit
// specs are client errors, not executions.
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
	c := NewClient(ts.URL)

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
		_, err := c.ExecuteScenarios(context.Background(), execScenarios(1), nil)
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
		if got := NewClient(in).BaseURL; got != want {
			t.Errorf("NewClient(%q).BaseURL = %q, want %q", in, got, want)
		}
	}
}

// TestExplicitSpecJSONShape pins the wire form of the explicit request
// so the client and server cannot drift: scenarios ride under the
// "scenarios" key alongside the grid axes.
func TestExplicitSpecJSONShape(t *testing.T) {
	key := execScenarios(1)[0].Key()
	buf, err := json.Marshal(GridSpec{Scenarios: []string{key}})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"scenarios":[%q]}`, key)
	if string(buf) != want {
		t.Errorf("explicit spec encodes as %s, want %s", buf, want)
	}
}
