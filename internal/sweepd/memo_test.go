package sweepd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// memoCells are cheap real-physics CloverLeaf cells at full node. At
// full node icx-snc0 has icx's caches, so its cells replay exactly the
// loops of the matching icx cells.
func memoCells(t *testing.T, machines ...string) []sweep.Scenario {
	return sweep.Grid{Machines: machines, Workloads: []string{"cloverleaf"},
		Modes: modesOf(t, "baseline", "speci2m-off"), Meshes: []sweep.Mesh{{X: 768, Y: 768}}, MaxRows: 2}.Expand()
}

// memoRunner simulates with the production runner and counts the cells
// that ran under each loop memo.
func memoRunner(mu *sync.Mutex, memos map[*trace.Memo]int) sweep.Runner {
	return func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		mu.Lock()
		memos[trace.ContextMemo(ctx)]++
		mu.Unlock()
		return cloversim.RunScenarioContext(ctx, s)
	}
}

// TestSecondExpandReplaysNoLoop: every expand runs under the server's
// one loop memo, so a second expand replays none of the loops a first
// one simulated: its icx-snc0 cells are served from what the first
// expand's icx cells left in the memo.
func TestSecondExpandReplaysNoLoop(t *testing.T) {
	var mu sync.Mutex
	memos := map[*trace.Memo]int{}
	srv := New(openStore(t), memoRunner(&mu, memos), 2)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if _, sum := expandStream(t, ts, memoCells(t, "icx")); sum.OK != 2 {
		t.Fatalf("first expand summary %+v, want 2 ok", sum)
	}
	first := srv.memo.Stats()
	if first.Replays == 0 {
		t.Fatalf("first expand replayed no loop: %+v", first)
	}
	if _, sum := expandStream(t, ts, memoCells(t, "icx-snc0")); sum.OK != 2 {
		t.Fatalf("second expand summary %+v, want 2 ok", sum)
	}
	second := srv.memo.Stats()
	if second.Replays != first.Replays {
		t.Errorf("second expand replayed %d loops, want 0 (memo %+v after the first, %+v after the second)",
			second.Replays-first.Replays, first, second)
	}
	if second.Hits <= first.Hits {
		t.Errorf("second expand was served no loop from the memo: %+v, then %+v", first, second)
	}
	if len(memos) != 1 || memos[srv.memo] != 4 {
		t.Errorf("cells ran under %d memos (%d under the server's), want all 4 under the server's", len(memos), memos[srv.memo])
	}
}

// coldStore serves no cell, so every expand simulates all of its cells.
type coldStore struct{ ResultStore }

func (coldStore) Get(sweep.Scenario) (sweep.Metrics, bool) { return nil, false }

// TestConcurrentExpandsShareLoopMemo: expands that simulate the same
// cells at once share the server's memo and keep the bits of each
// cell simulated alone.
func TestConcurrentExpandsShareLoopMemo(t *testing.T) {
	cells := memoCells(t, "icx", "icx-snc0")
	want := map[string][]byte{}
	for _, sc := range cells {
		m, err := cloversim.RunScenarioContext(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[sc.ID()], err = store.EncodeRecord(cloversim.PhysicsVersion, sc, m); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	memos := map[*trace.Memo]int{}
	srv := New(coldStore{openStore(t)}, memoRunner(&mu, memos), 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Each request carries every cell, rotated, so the requests start
	// on different cells and meet on the others.
	const requests = 4
	bodies := make([][]byte, requests)
	for r := range bodies {
		bodies[r] = expandBody(t, append(cells[r%len(cells):], cells[:r%len(cells)]...))
	}
	errs := make(chan error, requests)
	var wg sync.WaitGroup
	for r, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- checkBits(ts, body, want, r)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := requests * len(cells); len(memos) != 1 || memos[srv.memo] != n {
		t.Errorf("cells ran under %d memos (%d under the server's), want all %d under the server's", len(memos), memos[srv.memo], n)
	}
}

// checkBits posts one expand and compares every result frame's record
// with the record of want's bits.
func checkBits(ts *httptest.Server, body []byte, want map[string][]byte, r int) error {
	resp, err := ts.Client().Post(ts.URL+"/v1/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	results, sum, err := parseStream(out)
	if err != nil {
		return fmt.Errorf("request %d: %v", r, err)
	}
	if sum.OK != len(want) {
		return fmt.Errorf("request %d: summary %+v, want %d ok", r, sum, len(want))
	}
	for _, res := range results {
		if w := bytes.TrimSuffix(want[res.ID], []byte("\n")); !bytes.Equal(res.Record, w) {
			return fmt.Errorf("request %d: cell %s carries record %s, want %s", r, res.ID, res.Record, w)
		}
	}
	return nil
}
