package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

const testPhysics = "ptest"

// testRunner simulates one scenario deterministically, with a value
// chosen to exercise bit-exact transport (1/3 is not representable).
func testRunner(sims *atomic.Int64) sweep.Runner {
	return func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		var m sweep.Metrics
		m.Add("v", float64(s.Ranks)/3.0)
		m.Add("w", float64(s.Ranks*1000+s.Threads))
		return m, nil
	}
}

// fleetWorker is one in-process sweepd worker plus its counters.
type fleetWorker struct {
	srv  *httptest.Server
	sims atomic.Int64
	st   *store.Store
}

// startWorker brings up a sweepd worker with the given simulation
// capacity, optionally wrapping its handler (to inject deaths and
// stalls). physics is the store's version, which healthz reports.
func startWorker(t *testing.T, capacity int, physics string, wrap func(http.Handler) http.Handler) *fleetWorker {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), physics)
	if err != nil {
		t.Fatal(err)
	}
	w := &fleetWorker{st: st}
	srv := sweepd.New(st, testRunner(&w.sims), capacity)
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	w.srv = httptest.NewServer(h)
	t.Cleanup(func() { w.srv.Close(); st.Close() })
	return w
}

// scenarios builds n distinct scenarios.
func scenarios(n int) []sweep.Scenario {
	out := make([]sweep.Scenario, n)
	for i := range out {
		out[i] = sweep.Scenario{Machine: "m", Ranks: i + 1, Threads: i % 3, Seed: 7}
	}
	return out
}

// newFleet assembles a fleet over the given workers or fails the test.
func newFleet(t *testing.T, physics string, ws ...*fleetWorker) *Fleet {
	t.Helper()
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.srv.URL
	}
	f, err := New(context.Background(), urls, physics)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runCampaign executes the scenarios through a real engine with the
// fleet backend and a persistent client-side store.
func runCampaign(t *testing.T, f *Fleet, scs []sweep.Scenario) (sweep.Campaign, *store.Store) {
	t.Helper()
	clientStore, err := store.Open(filepath.Join(t.TempDir(), "client"), testPhysics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientStore.Close() })
	eng := &sweep.Engine{Backend: f, Cache: clientStore}
	return eng.Run(context.Background(), scs, nil), clientStore
}

// TestFleetExecutesCampaign: a healthy 3-worker fleet executes every
// cold cell exactly once in aggregate, bit-exact with local execution,
// and the engine's write-through lands every result in the client
// store.
func TestFleetExecutesCampaign(t *testing.T) {
	a := startWorker(t, 2, testPhysics, nil)
	b := startWorker(t, 2, testPhysics, nil)
	c := startWorker(t, 2, testPhysics, nil)
	f := newFleet(t, testPhysics, a, b, c)
	if f.Size() != 3 || f.Capacity() != 6 {
		t.Fatalf("fleet size %d capacity %d, want 3 and 6", f.Size(), f.Capacity())
	}

	scs := scenarios(12)
	camp, clientStore := runCampaign(t, f, scs)
	if err := camp.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if len(camp.Results) != 12 {
		t.Fatalf("%d results, want 12", len(camp.Results))
	}
	var ref atomic.Int64
	runLocal := testRunner(&ref)
	for i, r := range camp.Results {
		want, _ := runLocal(context.Background(), scs[i])
		if len(r.Metrics) != len(want) {
			t.Fatalf("result %d: %d metrics, want %d", i, len(r.Metrics), len(want))
		}
		for k := range want {
			if r.Metrics[k] != want[k] {
				t.Errorf("result %d metric %s = %v, want bit-exact %v", i, want[k].Name, r.Metrics[k].Value, want[k].Value)
			}
		}
	}
	total := a.sims.Load() + b.sims.Load() + c.sims.Load()
	if total != 12 {
		t.Errorf("fleet simulated %d cells in aggregate, want exactly 12 (no duplication in a healthy fleet)", total)
	}
	if clientStore.Len() != 12 {
		t.Errorf("client store holds %d records after write-through, want 12", clientStore.Len())
	}
}

// dieAfterSimulating wraps a worker handler so every expand simulates
// normally (work and store writes happen) but the response is a 500 —
// the shape of a worker that dies after computing, before answering.
// healthz stays intact so fleet assembly sees a healthy worker.
func dieAfterSimulating() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			http.Error(w, "worker dying", http.StatusInternalServerError)
		})
	}
}

// TestFleetWorkerDiesMidCampaign is the chaos lock for retry with
// exclusion: one of three workers dies after simulating its first
// chunk. The dispatcher must exclude it and re-shard its chunk onto
// the survivors — no lost cells, no duplicated results, and the only
// extra cost is re-simulating the dead worker's in-flight shard.
func TestFleetWorkerDiesMidCampaign(t *testing.T) {
	a := startWorker(t, 2, testPhysics, nil)
	dead := startWorker(t, 2, testPhysics, dieAfterSimulating())
	c := startWorker(t, 2, testPhysics, nil)
	f := newFleet(t, testPhysics, a, dead, c)

	scs := scenarios(12)
	camp, clientStore := runCampaign(t, f, scs)
	if err := camp.Err(); err != nil {
		t.Fatalf("campaign failed despite two live workers: %v", err)
	}

	// No lost cells: every scenario has a successful result; no
	// duplicated cells: results are per-input and each ID appears once
	// per distinct scenario.
	seen := map[string]int{}
	for _, r := range camp.Results {
		if r.Err != nil {
			t.Errorf("cell %s lost to the dead worker: %v", r.ID, r.Err)
		}
		seen[r.ID]++
	}
	if len(seen) != 12 {
		t.Errorf("%d distinct result IDs, want 12", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("cell %s reported %d times, want once", id, n)
		}
	}
	if clientStore.Len() != 12 {
		t.Errorf("client store holds %d records, want all 12", clientStore.Len())
	}

	// Cost accounting: the dead worker simulated exactly its chunk
	// (capacity 2) before dying, and those cells were re-simulated by
	// the survivors — nothing more.
	if n := dead.sims.Load(); n != 2 {
		t.Errorf("dead worker simulated %d cells, want its one chunk of 2", n)
	}
	total := a.sims.Load() + dead.sims.Load() + c.sims.Load()
	if want := int64(12 + 2); total != want {
		t.Errorf("fleet simulated %d cells, want %d (12 + the dead worker's re-simulated shard)", total, want)
	}
}

// stallFirstExpand wraps a worker handler so its first expand request
// blocks for the given delay before simulating — a straggler, not a
// corpse. The stall aborts when the client abandons the request, so
// the test server can shut down promptly.
func stallFirstExpand(delay time.Duration) func(http.Handler) http.Handler {
	var first sync.Once
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				first.Do(func() {
					// Consume the body before stalling: the net/http
					// server only detects a client disconnect (and
					// cancels r.Context) once the request body is read,
					// and the stall must end when the dispatcher
					// abandons the request or server shutdown would
					// block on this handler.
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					t := time.NewTimer(delay)
					defer t.Stop()
					select {
					case <-t.C:
					case <-r.Context().Done():
					}
				})
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestFleetStragglerReDispatch: a worker that stalls holds its chunk
// hostage; once stragglerAfter passes, idle workers re-dispatch those
// cells and the campaign completes without waiting for the straggler —
// the moment every cell is accounted for, the straggler's in-flight
// request is abandoned and Execute returns. A connected-but-frozen
// worker costs latency bounded by stragglerAfter, never a hang.
func TestFleetStragglerReDispatch(t *testing.T) {
	const stall = 30 * time.Second // far beyond the test timeout if the hang regresses
	a := startWorker(t, 2, testPhysics, nil)
	slow := startWorker(t, 2, testPhysics, stallFirstExpand(stall))
	c := startWorker(t, 2, testPhysics, nil)
	f := newFleet(t, testPhysics, a, slow, c)
	// Long enough that a re-dispatched chunk (trivial simulations)
	// finishes before it could be stolen a second time, short enough
	// to keep the test brisk.
	f.stragglerAfter = 200 * time.Millisecond

	scs := scenarios(12)
	start := time.Now()
	camp, clientStore := runCampaign(t, f, scs)
	elapsed := time.Since(start)
	if err := camp.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if elapsed >= stall {
		t.Errorf("campaign took %v: Execute waited for the stalled worker", elapsed)
	}
	seen := map[string]int{}
	for _, r := range camp.Results {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.ID, r.Err)
		}
		seen[r.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("cell %s reported %d times, want once (first-wins dedup)", id, n)
		}
	}
	if clientStore.Len() != 12 {
		t.Errorf("client store holds %d records, want 12", clientStore.Len())
	}
	// The stalled worker never simulated (its request was abandoned
	// mid-stall), and its chunk ran exactly once elsewhere.
	total := a.sims.Load() + slow.sims.Load() + c.sims.Load()
	if total != 12 {
		t.Errorf("fleet simulated %d cells, want 12 (the straggler's chunk runs once, elsewhere)", total)
	}
}

// TestFleetRefusesMixedPhysics: fleet assembly must reject a worker
// whose physics version differs from the client's — merging results
// simulated under different physics would silently corrupt campaigns.
func TestFleetRefusesMixedPhysics(t *testing.T) {
	ok := startWorker(t, 2, testPhysics, nil)
	stale := startWorker(t, 2, "pother", nil)
	_, err := New(context.Background(), []string{ok.srv.URL, stale.srv.URL}, testPhysics)
	if err == nil {
		t.Fatal("New accepted a mixed-physics fleet")
	}
	if !strings.Contains(err.Error(), "pother") || !strings.Contains(err.Error(), testPhysics) {
		t.Errorf("error does not name both versions: %v", err)
	}
}

// TestFleetRefusesUnreachableWorker: a dead URL fails assembly rather
// than silently shrinking the fleet.
func TestFleetRefusesUnreachableWorker(t *testing.T) {
	ok := startWorker(t, 2, testPhysics, nil)
	if _, err := New(context.Background(), []string{ok.srv.URL, "127.0.0.1:1"}, testPhysics); err == nil {
		t.Fatal("New accepted an unreachable worker")
	}
	if _, err := New(context.Background(), nil, testPhysics); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
}

// TestFleetAllWorkersDead: when the last live worker fails, the
// remaining cells fail loudly (outside cancellation) instead of
// hanging or vanishing.
func TestFleetAllWorkersDead(t *testing.T) {
	dead := startWorker(t, 2, testPhysics, dieAfterSimulating())
	f := newFleet(t, testPhysics, dead)

	scs := scenarios(6)
	camp, _ := runCampaign(t, f, scs)
	for _, r := range camp.Results {
		if r.Err == nil {
			t.Errorf("cell %s succeeded with no live workers", r.ID)
			continue
		}
		if errors.Is(r.Err, sweep.ErrUnstarted) {
			t.Errorf("cell %s reported unstarted outside cancellation: %v", r.ID, r.Err)
		}
	}
	if camp.Interrupted() {
		t.Error("campaign reads as interrupted; worker death is a failure, not a cancellation")
	}
}

// bounceUnstarted is a fake worker that accepts every expand and
// returns every cell unstarted — the shape of a daemon stuck at its
// expand deadline. healthz reports a healthy worker.
func bounceUnstarted(t *testing.T, physics string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(sweepd.Health{OK: true, Physics: physics, Capacity: 2})
	})
	mux.HandleFunc("POST /v1/expand", func(w http.ResponseWriter, r *http.Request) {
		var spec sweepd.GridSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		type res struct {
			ID        string `json:"id"`
			Key       string `json:"key"`
			Unstarted bool   `json:"unstarted"`
			Error     string `json:"error"`
		}
		var results []res
		for _, key := range spec.Scenarios {
			s, err := sweep.ParseKey(key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			results = append(results, res{
				ID: s.ID(), Key: key, Unstarted: true,
				Error: fmt.Sprintf("not started: %s", sweep.ErrUnstarted),
			})
		}
		enc := json.NewEncoder(w)
		enc.Encode(map[string]any{"stream": map[string]any{"physics": physics, "scenarios": len(results)}})
		for _, r := range results {
			enc.Encode(map[string]res{"result": r})
		}
		enc.Encode(map[string]any{"summary": map[string]int{"scenarios": len(results), "unstarted": len(results)}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestFleetGivesUpOnBouncingCells: a worker that keeps accepting and
// bouncing cells must not trap the dispatcher in an infinite requeue
// loop — after maxAttempts dispatches a cell fails.
func TestFleetGivesUpOnBouncingCells(t *testing.T) {
	srv := bounceUnstarted(t, testPhysics)
	f, err := New(context.Background(), []string{srv.URL}, testPhysics)
	if err != nil {
		t.Fatal(err)
	}
	f.maxAttempts = 2

	scs := scenarios(3)
	done := make(chan sweep.Campaign, 1)
	go func() {
		camp, _ := runCampaign(t, f, scs)
		done <- camp
	}()
	select {
	case camp := <-done:
		for _, r := range camp.Results {
			if r.Err == nil {
				t.Errorf("cell %s succeeded on a bounce-only worker", r.ID)
			} else if !strings.Contains(r.Err.Error(), "giving up after 2") {
				t.Errorf("cell %s error %v, want a give-up after 2 attempts", r.ID, r.Err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dispatcher looped forever on a bouncing worker")
	}
}

// finishedBoardCtx is a dispatch context that reads as cancelled the
// moment its board accounts for every cell: Execute's cancel landing
// before the worker that finished the board emits its failures.
type finishedBoardCtx struct {
	context.Context
	b *board
}

func (c finishedBoardCtx) Done() <-chan struct{} { return c.b.allDone }

func (c finishedBoardCtx) Err() error {
	select {
	case <-c.b.allDone:
		return context.Canceled
	default:
		return nil
	}
}

// TestFleetReportsTheFailureThatFinishesTheBoard: the failure that
// accounts for the last cell (a give-up, or the drain after the last
// worker dies) is reported even when the dispatch context is already
// cancelled by the time the worker emits it. Only the campaign context
// makes failures go unreported.
func TestFleetReportsTheFailureThatFinishesTheBoard(t *testing.T) {
	dead := http.NewServeMux()
	dead.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(sweepd.Health{OK: true, Physics: testPhysics, Capacity: 2})
	})
	dead.HandleFunc("POST /v1/expand", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker down", http.StatusInternalServerError)
	})
	deadSrv := httptest.NewServer(dead)
	t.Cleanup(deadSrv.Close)
	for _, c := range []struct {
		name, url, want string
	}{
		{"give-up", bounceUnstarted(t, testPhysics).URL, "giving up after 2"},
		{"last worker dies", deadSrv.URL, "no live workers remain"},
	} {
		f, err := New(context.Background(), []string{c.url}, testPhysics)
		if err != nil {
			t.Fatal(err)
		}
		f.maxAttempts = 2
		scs := scenarios(3)
		b := newBoard(len(scs), 1)
		got := make([]error, len(scs))
		ctx := context.Background()
		f.runWorker(ctx, finishedBoardCtx{ctx, b}, 0, f.workers[0], b, scs, func(i int, _ sweep.Metrics, err error) {
			got[i] = err
		})
		for i, err := range got {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: cell %d reported %v, want %q", c.name, i, err, c.want)
			}
		}
	}
}

// TestFleetRejectsMidCampaignPhysicsSwap: a worker whose healthz
// passed assembly but whose responses carry a different physics
// version (restarted with a newer binary, swapped behind a load
// balancer) must have its batches rejected — foreign-physics metrics
// never merge into the campaign or its store.
func TestFleetRejectsMidCampaignPhysicsSwap(t *testing.T) {
	// The real worker simulates under a different physics than it
	// advertises: lie in healthz.
	swapped := startWorker(t, 2, "pswapped", func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				json.NewEncoder(w).Encode(sweepd.Health{OK: true, Physics: testPhysics, Capacity: 2})
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	f := newFleet(t, testPhysics, swapped)

	camp, clientStore := runCampaign(t, f, scenarios(4))
	for _, r := range camp.Results {
		if r.Err == nil {
			t.Errorf("cell %s accepted a foreign-physics result", r.ID)
		} else if !strings.Contains(r.Err.Error(), "physics") {
			t.Errorf("cell %s error %v, want a physics rejection", r.ID, r.Err)
		}
	}
	if clientStore.Len() != 0 {
		t.Errorf("client store holds %d foreign-physics records, want 0", clientStore.Len())
	}
}

// TestFleetCancellation: cancelling the campaign context mid-flight
// leaves unexecuted cells unstarted (the engine's distinguished
// cancellation marker), not failed.
func TestFleetCancellation(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	slow := startWorker(t, 1, testPhysics, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				<-release
			}
			next.ServeHTTP(w, r)
		})
	})
	defer once.Do(func() { close(release) })
	f := newFleet(t, testPhysics, slow)

	ctx, cancel := context.WithCancel(context.Background())
	eng := &sweep.Engine{Backend: f}
	scs := scenarios(5)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
		once.Do(func() { close(release) })
	}()
	camp := eng.Run(ctx, scs, nil)
	if !camp.Interrupted() {
		t.Fatal("cancelled fleet campaign does not read as interrupted")
	}
	for _, r := range camp.Unstarted() {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("unstarted cell %s does not carry the context error: %v", r.ID, r.Err)
		}
	}
}
