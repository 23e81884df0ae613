package dispatch

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

// TestFleetStreamsPerCellProgress: the engine's progress sees a remote
// completion while the rest of its chunk is still simulating. The last
// cell blocks worker-side until the client-side engine has reported
// another cell of the SAME chunk — with chunk-granular results that is
// a deadlock (bounded here by the context timeout).
func TestFleetStreamsPerCellProgress(t *testing.T) {
	release := make(chan struct{})
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), testPhysics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w := sweepd.New(st, func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Ranks == 4 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var m sweep.Metrics
		m.Add("v", float64(s.Ranks)/3.0)
		return m, nil
	}, 4)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	f, err := New(context.Background(), []string{ts.URL}, testPhysics)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	eng := &sweep.Engine{Backend: f}
	var once atomic.Bool
	c := eng.Run(ctx, scenarios(4), func(done, total int, r sweep.Result) {
		if r.Scenario.Ranks != 4 && once.CompareAndSwap(false, true) {
			close(release)
		}
	})
	for _, r := range c.Results {
		if r.Err != nil {
			t.Fatalf("cell %s failed (chunk-granular progress would deadlock here): %v", r.ID, r.Err)
		}
	}
}

// TestFleetClampsChunksToWorkerMaxCells: a worker whose simulation
// capacity exceeds its advertised per-request cell cap must be fed
// chunks within the cap — otherwise every batch bounces with a 400 and
// the fleet dies on a healthy worker.
func TestFleetClampsChunksToWorkerMaxCells(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), testPhysics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var sims atomic.Int64
	srv := sweepd.New(st, testRunner(&sims), 8)
	srv.MaxCells = 2
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	f, err := New(context.Background(), []string{ts.URL}, testPhysics)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.workers[0].chunk; got != 2 {
		t.Fatalf("worker chunk = %d with capacity 8 and max_cells 2, want 2", got)
	}
	scs := scenarios(8)
	c, _ := runCampaign(t, f, scs)
	for _, r := range c.Results {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.ID, r.Err)
		}
	}
	if sims.Load() != int64(len(scs)) {
		t.Errorf("%d simulations for %d cells", sims.Load(), len(scs))
	}
}

// cutAfterResults wraps a sweepd handler so expand streams die after
// surfacing n result frames: later writes fail, the summary never
// leaves, and the client sees a truncated stream.
func cutAfterResults(n int) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/expand" {
				w = &cutWriter{ResponseWriter: w, allow: n}
			}
			inner.ServeHTTP(w, r)
		})
	}
}

type cutWriter struct {
	http.ResponseWriter
	allow  int
	frames int
	cut    bool
}

func (c *cutWriter) Write(b []byte) (int, error) {
	if c.cut {
		return 0, errors.New("injected connection cut")
	}
	if bytes.Contains(b, []byte(`"result"`)) {
		c.frames++
		if c.frames > c.allow {
			c.cut = true
			return 0, errors.New("injected connection cut")
		}
	}
	return c.ResponseWriter.Write(b)
}

func (c *cutWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// TestFleetKeepsSurfacedPrefixOnStreamDeath: when a worker's stream
// dies mid-chunk, the cells whose frames already arrived are kept —
// only the unsurfaced remainder is requeued for the survivors. The
// campaign completes without failures and the surfaced prefix is never
// re-dispatched.
func TestFleetKeepsSurfacedPrefixOnStreamDeath(t *testing.T) {
	const surfacedBeforeCut = 2
	dying := startWorker(t, 8, testPhysics, cutAfterResults(surfacedBeforeCut))
	healthy := startWorker(t, 1, testPhysics, nil)
	f := newFleet(t, testPhysics, dying, healthy)

	scs := scenarios(8)
	c, clientStore := runCampaign(t, f, scs)
	for i, r := range c.Results {
		if r.Err != nil {
			t.Fatalf("cell %s failed; a mid-stream death must cost only unsurfaced cells: %v", r.ID, r.Err)
		}
		if v, _ := r.Metrics.Get("v"); v != float64(scs[i].Ranks)/3.0 {
			t.Errorf("cell %s v = %v, want bit-exact %v", r.ID, v, float64(scs[i].Ranks)/3.0)
		}
	}
	if clientStore.Len() != len(scs) {
		t.Errorf("client store holds %d records, want %d", clientStore.Len(), len(scs))
	}
	// The surfaced prefix stayed completed: the healthy worker only ever
	// simulated the cells the dying worker failed to surface (plus
	// whatever it grabbed before the death), never the surfaced ones.
	if max := int64(len(scs) - surfacedBeforeCut); healthy.sims.Load() > max {
		t.Errorf("healthy worker simulated %d cells, want <= %d (surfaced prefix must not be re-dispatched)",
			healthy.sims.Load(), max)
	}
}
