package sweepd

import (
	"bytes"
	"context"
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

// wideScenarios are 30 cheap cells for cancellation tests.
func wideScenarios(t *testing.T) []sweep.Scenario {
	return sweep.Grid{
		Machines:  []string{"icx", "spr8480"},
		Workloads: []string{"stream"},
		Modes:     modesOf(t, "baseline", "nt", "pf-off"),
		Ranks:     []int{1, 2, 3, 4, 5},
		Threads:   []int{8},
		Seed:      900,
	}.Expand()
}

// streamScenarios are cheap icx stream cells, one per rank count.
func streamScenarios(t *testing.T, seed uint64, ranks ...int) []sweep.Scenario {
	return sweep.Grid{Machines: []string{"icx"}, Workloads: []string{"stream"},
		Modes: modesOf(t, "baseline"), Ranks: ranks, Threads: []int{8}, Seed: seed}.Expand()
}

// TestExpandClientDisconnectStopsSimulation is the tentpole's daemon
// half: a client that disconnects mid-expand must stop the server
// simulating that request's remaining cold cells, release its global
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

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/expand", bytes.NewReader(expandBody(t, wideScenarios(t))))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil {
				err = errors.New("expand of blocked cells ended before disconnect")
			}
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
	if _, sum := expandStream(t, ts, streamScenarios(t, 901, 7, 8)); sum.Scenarios != 2 || sum.OK != 2 {
		t.Errorf("post-disconnect expand summary %+v, want 2 ok (semaphore slot leaked?)", sum)
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
// summary flags the stream incomplete, unstarted cells carry errors,
// and the simulation count proves the request was cut short.
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

	results, sum := expandStream(t, ts, wideScenarios(t))
	if !strings.Contains(sum.Incomplete, "deadline") {
		t.Errorf("summary incomplete = %q, want a deadline marker", sum.Incomplete)
	}
	if sum.Scenarios != 30 || len(results) != 30 {
		t.Errorf("summary reports %d scenarios in %d result frames, want all 30 finalized", sum.Scenarios, len(results))
	}
	if sum.Unstarted == 0 {
		t.Error("timed-out expand reports zero unstarted cells")
	}
	for _, res := range results {
		if res.Unstarted && res.Error == "" {
			t.Errorf("unstarted cell %s carries no error", res.ID)
		}
	}
	if got := sims.Load(); got >= 30 {
		t.Errorf("deadline did not stop the request: %d cells simulated", got)
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
// the stream incomplete.
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
	hogBody := expandBody(t, streamScenarios(t, 910, 1))
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		resp, err := http.Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(hogBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	// Expand B starves behind it until the deadline.
	results, sum := expandStream(t, ts, streamScenarios(t, 911, 21, 22))
	unstarted := 0
	for _, r := range results {
		if r.Unstarted && strings.Contains(r.Error, sweep.ErrUnstarted.Error()) {
			unstarted++
		}
	}
	if unstarted != 2 || sum.Unstarted != 2 || sum.Incomplete == "" {
		t.Errorf("%d of 2 starved cells marked unstarted, summary %+v", unstarted, sum)
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

// TestExpandSyncsBeforeResponding: a summary without store_error is a
// durability acknowledgement, so the store must be fsynced before it
// goes out: a daemon crash after the summary cannot lose results the
// client believes are persisted.
func TestExpandSyncsBeforeResponding(t *testing.T) {
	spy := &syncSpyStore{ResultStore: openStore(t)}
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	ts := startServer(t, spy, runner, 2)
	scs := streamScenarios(t, 902, 1, 2)
	if _, sum := expandStream(t, ts, scs); sum.OK != 2 || sum.StoreError != "" {
		t.Fatalf("cold expand summary %+v, want 2 ok and durable", sum)
	}
	if spy.syncs.Load() == 0 {
		t.Error("cold expand sent its summary without syncing the store")
	}
	// A fully-warm expand must also end clean — Sync is called
	// unconditionally (it is free on a clean store) so a dirty store
	// left by an earlier failed fsync gets retried, never vouched for.
	if _, sum := expandStream(t, ts, scs); sum.OK != 2 || sum.StoreError != "" {
		t.Fatalf("warm expand summary %+v, want 2 ok and durable", sum)
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
// failure must not cost the client a store_error when the store
// recovers — the handler's verification loop retries the Put with the
// in-hand metrics before the summary, so the cell is persisted and the
// summary is clean, in the same request when possible and on the next
// one at the latest.
func TestExpandRepairsTransientPutFailure(t *testing.T) {
	real := openStore(t)
	flaky := &flakyPutStore{ResultStore: real}
	flaky.remaining.Store(2) // both engine write-throughs fail; the repair retry succeeds
	runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		return syntheticMetrics(s), nil
	}
	ts := startServer(t, flaky, runner, 2)
	scs := streamScenarios(t, 905, 15, 16)

	if _, sum := expandStream(t, ts, scs); sum.StoreError != "" {
		t.Errorf("repaired expand still flags store_error %q", sum.StoreError)
	}
	if real.Len() != 2 {
		t.Errorf("repair persisted %d records, want 2", real.Len())
	}

	// The warm repeat finds everything durable and stays clean.
	if _, sum := expandStream(t, ts, scs); sum.StoreError != "" {
		t.Errorf("warm expand after repair flags store_error %q", sum.StoreError)
	}
}

// TestWarmExpandAfterFailedPutsStillFlagsLoss: when write-throughs
// fail, nothing reaches the store, so a repeat of the same request
// simulates its cells again and cannot persist them either (the
// repair retry fails too): every summary must say so, not only the
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

	scs := streamScenarios(t, 904, 5, 6)
	for pass, label := range []string{"cold", "warm"} {
		results, sum := expandStream(t, ts, scs)
		if sum.StoreError == "" {
			t.Errorf("%s expand (pass %d) carries no store_error despite nothing being persisted", label, pass)
		}
		if sum.Scenarios != 2 || sum.OK != 2 || len(results) != 2 {
			t.Fatalf("%s expand lost its results: summary %+v, %d result frames", label, sum, len(results))
		}
	}
}

// TestExpandSurfacesSyncFailure: a failed fsync is a durability loss
// exactly like a failed Put, and reaches the client through the same
// store_error field.
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

	results, sum := expandStream(t, ts, streamScenarios(t, 903, 3))
	if sum.StoreError == "" {
		t.Error("sync failure not flagged in the summary's store_error")
	}
	if sum.Scenarios != 1 || sum.OK != 1 || len(results) != 1 {
		t.Errorf("results lost alongside the sync failure: summary %+v, %d result frames", sum, len(results))
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
