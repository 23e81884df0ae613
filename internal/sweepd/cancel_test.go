package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cloversim/internal/sweep"
)

// syntheticMetrics builds valid scenario-derived metrics without real
// physics, keeping cancellation tests fast.
func syntheticMetrics(s sweep.Scenario) sweep.Metrics {
	var m sweep.Metrics
	m.Add("v", float64(s.Ranks))
	return m
}

// wideSpec is a 30-cell grid of cheap cells for cancellation tests.
func wideSpec() GridSpec {
	return GridSpec{
		Machines:  []string{"icx", "spr8480"},
		Workloads: []string{"stream"},
		Modes:     []string{"baseline", "nt", "pf-off"},
		Ranks:     []int{1, 2, 3, 4, 5},
		Threads:   []int{8},
		Seed:      900,
	}
}

// TestExpandClientDisconnectStopsSimulation is the tentpole's daemon
// half: a client that disconnects mid-expand must stop the server
// simulating that grid's remaining cold cells, release its global
// semaphore slots immediately, and leave the daemon fully responsive
// — abandoned requests cannot starve live ones.
func TestExpandClientDisconnectStopsSimulation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	st := openStore(t)
	var sims atomic.Int64
	var blocking atomic.Bool
	blocking.Store(true)
	started := make(chan struct{})
	var once sync.Once
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		once.Do(func() { close(started) })
		if blocking.Load() {
			// Simulate a long-running cell; it finishes only once the
			// request is abandoned (or the failsafe trips).
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("cancellation never arrived")
			}
		}
		return syntheticMetrics(s), nil
	}
	ts := startServer(t, st, runner, 1) // one global slot: contention is total

	body, err := json.Marshal(wideSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/expand", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("expand of a blocked grid returned before disconnect")
		}
		errc <- err
	}()
	<-started // the first cold cell is simulating
	cancel()  // client walks away
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected request returned %v, want context.Canceled", err)
	}

	// The abandoned expand must stop scheduling: with the request
	// context dead, no further cells may enter the runner. Give the
	// handler a moment to unwind, then verify the count stays put.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sims.Load() > 1 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("abandoned expand simulated %d cells, want only the 1 in flight at disconnect", got)
	}

	// The global slot must be free again: a fresh expand (non-blocking
	// runner) completes promptly. Before cancellable semaphore acquire,
	// this would queue behind 29 zombie cells.
	blocking.Store(false)
	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{7, 8}, Threads: []int{8}, Seed: 901}
	status, out := postExpand(t, ts, spec)
	if status != http.StatusOK {
		t.Fatalf("post-disconnect expand status %d: %s", status, out)
	}
	var exp expandResponse
	if err := json.Unmarshal(out, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 2 || exp.Failed != 0 {
		t.Errorf("post-disconnect expand: %d scenarios, %d failed; want 2/0 (semaphore slot leaked?)", exp.Scenarios, exp.Failed)
	}

	// No goroutine pile-up: the abandoned expand's workers all exited.
	ts.Client().CloseIdleConnections()
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+10 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+10 {
		t.Errorf("goroutines grew from %d to %d after the abandoned expand", baseline, n)
	}
}

// TestExpandTimeout: the server-side deadline bounds an expand. The
// response is a partial campaign flagged with X-Expand-Incomplete,
// unstarted cells carry errors, and the simulation count proves the
// grid was cut short.
func TestExpandTimeout(t *testing.T) {
	st := openStore(t)
	var sims atomic.Int64
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		return syntheticMetrics(s), nil
	}
	srv := New(st, runner, 1)
	srv.ExpandTimeout = 60 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body, err := json.Marshal(wideSpec())
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timed-out expand status %d: %s", resp.StatusCode, out)
	}
	if h := resp.Header.Get("X-Expand-Incomplete"); !strings.Contains(h, "deadline") {
		t.Errorf("X-Expand-Incomplete header = %q, want a deadline marker", h)
	}
	var exp expandResponse
	if err := json.Unmarshal(out, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 30 {
		t.Errorf("partial campaign reports %d scenarios, want all 30 finalized", exp.Scenarios)
	}
	if exp.Failed == 0 {
		t.Error("timed-out expand reports zero failed cells; unstarted cells must carry errors")
	}
	if got := sims.Load(); got >= 30 {
		t.Errorf("deadline did not stop the grid: %d cells simulated", got)
	}
	// Only completed cells were persisted.
	if st.Len() >= 30 || int64(st.Len()) > sims.Load() {
		t.Errorf("store holds %d records after %d simulations", st.Len(), sims.Load())
	}
}

// TestExpandStarvedCellsReportUnstarted: a request whose cells spend
// their whole life waiting on the global semaphore (another expand
// holds the only slot) must report them as unstarted when its deadline
// fires — they are skipped work, not simulation failures — and flag
// the response incomplete.
func TestExpandStarvedCellsReportUnstarted(t *testing.T) {
	st := openStore(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Ranks == 1 {
			// The hog cell: holds the only slot until released,
			// deliberately ignoring its own deadline so the slot stays
			// occupied well past the starved request's.
			once.Do(func() { close(started) })
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				return nil, errors.New("never released")
			}
		}
		return syntheticMetrics(s), nil
	}
	srv := New(st, runner, 1) // one global slot for the whole daemon
	srv.ExpandTimeout = 150 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Expand A grabs the only slot and sits on it.
	hogSpec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{1}, Threads: []int{8}, Seed: 910}
	hogBody, _ := json.Marshal(hogSpec)
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(hogBody))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Expand B starves behind it until the deadline.
	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{21, 22}, Threads: []int{8}, Seed: 911}
	status, out := postExpand(t, ts, spec)
	if status != http.StatusOK {
		t.Fatalf("starved expand status %d: %s", status, out)
	}
	var exp struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &exp); err != nil {
		t.Fatal(err)
	}
	unstarted := 0
	for _, r := range exp.Results {
		if strings.Contains(r.Error, sweep.ErrUnstarted.Error()) {
			unstarted++
		}
	}
	if unstarted != 2 {
		t.Errorf("%d of 2 starved cells marked unstarted; response:\n%s", unstarted, out)
	}
	close(release)
	<-hogDone
}

// syncSpyStore wraps a ResultStore to count or fail Sync calls.
type syncSpyStore struct {
	ResultStore
	syncs   atomic.Int64
	syncErr error
}

func (s *syncSpyStore) Sync() error {
	s.syncs.Add(1)
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.ResultStore.Sync()
}

// TestExpandSyncsBeforeResponding: the 200 response is a durability
// acknowledgement, so the store must be fsynced before the body goes
// out — a daemon crash after the response cannot lose results the
// client believes are persisted.
func TestExpandSyncsBeforeResponding(t *testing.T) {
	spy := &syncSpyStore{ResultStore: openStore(t)}
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	ts := startServer(t, spy, runner, 2)
	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{1, 2}, Threads: []int{8}, Seed: 902}
	if status, out := postExpand(t, ts, spec); status != http.StatusOK {
		t.Fatalf("expand status %d: %s", status, out)
	}
	if spy.syncs.Load() == 0 {
		t.Error("cold expand responded 200 without syncing the store")
	}
	// A fully-warm expand must also end clean — Sync is called
	// unconditionally (it is free on a clean store) so a dirty store
	// left by an earlier failed fsync gets retried, never vouched for.
	if status, out := postExpand(t, ts, spec); status != http.StatusOK {
		t.Fatalf("warm expand status %d: %s", status, out)
	}
}

// putFailStore wraps a ResultStore so every write-through fails,
// simulating a full disk while the in-memory engine keeps working.
type putFailStore struct {
	ResultStore
}

func (s *putFailStore) Put(sweep.Scenario, sweep.Metrics) error {
	return errors.New("put: disk full")
}

// flakyPutStore fails the first `failures` write-throughs, then
// delegates — a disk that filled up and was cleared.
type flakyPutStore struct {
	ResultStore
	remaining atomic.Int64
}

func (s *flakyPutStore) Put(sc sweep.Scenario, m sweep.Metrics) error {
	if s.remaining.Add(-1) >= 0 {
		return errors.New("put: disk full")
	}
	return s.ResultStore.Put(sc, m)
}

// TestExpandRepairsTransientPutFailure: a transient write-through
// failure must not cost the client an X-Store-Error when the store
// recovers — the handler's verification loop retries the Put with the
// in-hand metrics before responding, so the cell is persisted and the
// response is clean, in the same request when possible and on the
// next one at the latest.
func TestExpandRepairsTransientPutFailure(t *testing.T) {
	real := openStore(t)
	flaky := &flakyPutStore{ResultStore: real}
	flaky.remaining.Store(2) // both engine write-throughs fail; the repair retry succeeds
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	ts := startServer(t, flaky, runner, 2)
	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{15, 16}, Threads: []int{8}, Seed: 905}
	body, _ := json.Marshal(spec)

	resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Store-Error"); h != "" {
		t.Errorf("repaired expand still flags X-Store-Error %q", h)
	}
	if real.Len() != 2 {
		t.Errorf("repair persisted %d records, want 2", real.Len())
	}

	// The warm repeat finds everything durable and stays clean.
	resp, err = http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Store-Error"); h != "" {
		t.Errorf("warm expand after repair flags X-Store-Error %q", h)
	}
}

// TestWarmExpandAfterFailedPutsStillFlagsLoss: when write-throughs
// fail, nothing reaches the store, so a repeat of the same grid
// simulates its cells again and cannot persist them either (the
// repair retry fails too): every response must say so, not only the
// first.
func TestWarmExpandAfterFailedPutsStillFlagsLoss(t *testing.T) {
	broken := &putFailStore{ResultStore: openStore(t)}
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	var logged bytes.Buffer
	srv := New(broken, runner, 2)
	srv.errorLog = log.New(&logged, "", 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{5, 6}, Threads: []int{8}, Seed: 904}
	body, _ := json.Marshal(spec)
	for pass, label := range []string{"cold", "warm"} {
		resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s expand status %d: %s", label, resp.StatusCode, out)
		}
		if resp.Header.Get("X-Store-Error") == "" {
			t.Errorf("%s expand (pass %d) carries no X-Store-Error despite nothing being persisted", label, pass)
		}
		var exp expandResponse
		if err := json.Unmarshal(out, &exp); err != nil {
			t.Fatal(err)
		}
		if exp.Scenarios != 2 || exp.Failed != 0 {
			t.Fatalf("%s expand lost the campaign: %s", label, out)
		}
	}
}

// TestExpandSurfacesSyncFailure: a failed fsync is a durability loss
// exactly like a failed Put, and reaches the client through the same
// X-Store-Error path.
func TestExpandSurfacesSyncFailure(t *testing.T) {
	spy := &syncSpyStore{ResultStore: openStore(t), syncErr: errors.New("fsync: disk on fire")}
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	var logged bytes.Buffer
	srv := New(spy, runner, 2)
	srv.errorLog = log.New(&logged, "", 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := GridSpec{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: []string{"baseline"}, Ranks: []int{3}, Threads: []int{8}, Seed: 903}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Store-Error") == "" {
		t.Error("sync failure not flagged in X-Store-Error header")
	}
	var exp expandResponse
	if err := json.Unmarshal(out, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 1 || exp.Failed != 0 {
		t.Errorf("campaign lost alongside the sync failure: %s", out)
	}
	if !strings.Contains(logged.String(), "disk on fire") {
		t.Errorf("sync failure not logged:\n%s", logged.String())
	}
}

// brokenPipeWriter fails every body write the way a hung-up client
// does.
type brokenPipeWriter struct {
	header http.Header
	status int
}

func (w *brokenPipeWriter) Header() http.Header { return w.header }

func (w *brokenPipeWriter) WriteHeader(status int) { w.status = status }

func (w *brokenPipeWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("write: %w", syscall.EPIPE)
}

// TestWriteJSONLogsBrokenPipe: response-encode failures have no client
// left to report to, so they must reach the server log instead of
// vanishing — otherwise handler bugs (and systematic client hangups)
// are invisible.
func TestWriteJSONLogsBrokenPipe(t *testing.T) {
	var logged bytes.Buffer
	srv := New(openStore(t), func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}, 1)
	srv.errorLog = log.New(&logged, "", 0)
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := &brokenPipeWriter{header: http.Header{}}
	srv.writeJSON(w, req, http.StatusOK, map[string]string{"ok": "true"})
	if w.status != http.StatusOK {
		t.Fatalf("status %d written, want 200", w.status)
	}
	if out := logged.String(); !strings.Contains(out, "broken pipe") || !strings.Contains(out, "/v1/healthz") {
		t.Errorf("broken pipe not logged with the request path:\n%q", out)
	}
}
