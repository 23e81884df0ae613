package sweepcli

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cloversim"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// memoRunner wraps the production runner and records the campaign loop
// memo each simulated cell runs under.
func memoRunner(mu *sync.Mutex, seen map[*trace.Memo]bool) sweep.Runner {
	return func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		mu.Lock()
		seen[trace.ContextMemo(ctx)] = true
		mu.Unlock()
		return cloversim.RunScenarioContext(ctx, s)
	}
}

// TestE2ELoopMemoPerInvocation: every cell of one invocation shares one
// loop memo and the next invocation starts with a fresh one, so running
// the same campaign twice in one process simulates as many loops the
// second time as the first — with byte-identical output, which the memo
// counts never reach.
func TestE2ELoopMemoPerInvocation(t *testing.T) {
	var memos []*trace.Memo
	var outs [][]byte
	for i := 0; i < 2; i++ {
		out := filepath.Join(t.TempDir(), "out")
		var mu sync.Mutex
		seen := map[*trace.Memo]bool{}
		// icx and icx-snc0 share their caches, so the speci2m-off cells
		// (no SpecI2M dice) replay identical loops on both machines.
		code, stdout, stderr := runCLI(t, []string{
			"-q", "-machines", "icx,icx-snc0", "-workloads", "cloverleaf",
			"-modes", "baseline,speci2m-off", "-mesh", "768x768", "-maxrows", "2",
			"-workers", "2", "-out", out,
		}, memoRunner(&mu, seen))
		if code != ExitOK {
			t.Fatalf("run %d exit %d, stderr:\n%s", i, code, stderr)
		}
		if len(seen) != 1 {
			t.Fatalf("run %d: cells ran under %d memos, want one per invocation", i, len(seen))
		}
		for m := range seen {
			memos = append(memos, m)
		}
		csv, err := os.ReadFile(filepath.Join(out, "campaign.csv"))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, append(normalize(stdout, map[string]string{out: "OUT"}), csv...))
	}
	if memos[0] == memos[1] {
		t.Fatal("both invocations shared one memo")
	}
	first, second := memos[0].Stats(), memos[1].Stats()
	if first.Replays == 0 || first.Hits == 0 {
		t.Errorf("first run memo stats %+v: want replays and hits", first)
	}
	if second.Replays != first.Replays {
		t.Errorf("second run replayed %d loops, the first %d", second.Replays, first.Replays)
	}
	if string(outs[0]) != string(outs[1]) {
		t.Error("the two runs' stdout and campaign.csv differ")
	}
}

// TestE2EAdaptiveLoopMemoSpansWaves: an adaptive invocation runs every
// wave under its one memo.
func TestE2EAdaptiveLoopMemoSpansWaves(t *testing.T) {
	var mu sync.Mutex
	seen := map[*trace.Memo]bool{}
	var sims atomic.Int64
	inner := frontierRunner(&sims)
	code, _, stderr := runCLI(t, adaptiveArgs(filepath.Join(t.TempDir(), "store"), filepath.Join(t.TempDir(), "out")),
		func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
			mu.Lock()
			seen[trace.ContextMemo(ctx)] = true
			mu.Unlock()
			return inner(ctx, s)
		})
	if code != ExitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if sims.Load() < 3 || len(seen) != 1 {
		t.Errorf("%d cells over the waves ran under %d memos, want at least 3 cells under one", sims.Load(), len(seen))
	}
}
