package sweepd

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"cloversim"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// TestExpandLoopMemoPerRequest: the cells of one expand request share
// one loop memo; the next request gets a fresh one.
func TestExpandLoopMemoPerRequest(t *testing.T) {
	var mu sync.Mutex
	var memos []*trace.Memo
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		mu.Lock()
		memos = append(memos, trace.ContextMemo(ctx))
		mu.Unlock()
		return cloversim.RunScenarioContext(ctx, s)
	}
	ts := startServer(t, openStore(t), runner, 2)
	for i, seed := range []uint64{7, 8} {
		spec := smallSpec()
		spec.Seed = seed
		if code, body := postExpand(t, ts, spec); code != http.StatusOK {
			t.Fatalf("expand %d: status %d: %s", i, code, body)
		}
	}
	per := len(memos) / 2
	if len(memos) != 8 || per == 0 {
		t.Fatalf("%d cells simulated over two 4-cell expands", len(memos))
	}
	for i, m := range memos {
		if first := memos[i/per*per]; m != first {
			t.Errorf("cell %d of expand %d ran under another memo than the expand's first cell", i%per, i/per)
		}
	}
	if memos[0] == memos[per] {
		t.Error("both expand requests shared one memo")
	}
}
