package sweepcli

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cloversim"
	"cloversim/internal/sweep"
)

// watchWriter forwards to buf and fires trigger on every write — the
// seam that lets a runner block until the CLI has SHOWN progress.
type watchWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	trigger func([]byte)
}

func (w *watchWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(b)
	w.trigger(b)
	return n, err
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestE2EProgressBeforeCompletion: -progress must report completions
// while the campaign is still running — the spr8480 half of the grid
// blocks until the live counter has appeared on stderr for the icx
// half, so a progress line that only materialized at campaign end
// would deadlock (bounded by the runner's timeout).
func TestE2EProgressBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	stderr := &watchWriter{trigger: func(b []byte) {
		if bytes.Contains(b, []byte("scenarios complete")) {
			once.Do(func() { close(release) })
		}
	}}
	runner := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Machine == "spr8480" {
			select {
			case <-release:
			case <-time.After(60 * time.Second):
				return nil, context.DeadlineExceeded
			}
		}
		return cloversim.RunScenarioContext(ctx, s)
	}

	var stdout bytes.Buffer
	// One worker slot per cell: the blocked spr8480 goroutines park on
	// the release channel without starving the icx half of the pool
	// (with a small pool they can win the semaphore first and deadlock
	// even though icx cells were dispatched earlier).
	args := append(e2eArgs(filepath.Join(t.TempDir(), "store"), filepath.Join(t.TempDir(), "out")), "-progress", "-workers", "12")
	code := MainWithRunnerContext(context.Background(), args, &stdout, stderr, runner)
	if code != ExitOK {
		t.Fatalf("-progress run exit %d (progress only at campaign end would time the blocked half out); stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "12/12 scenarios complete (0 failed)") {
		t.Errorf("stderr lacks the final progress line:\n%q", stderr.String())
	}
}
