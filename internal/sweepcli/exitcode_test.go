package sweepcli

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloversim/internal/sweep"
)

// TestExitCodeContract: both forms apply one exit-code rule. A failure
// exits 1; an interrupt exits 3, also when a cell failed before it. The
// failing cell is the first one run, and it cancels the run when the
// case interrupts, so the remaining cells never start. A completed
// exhaustive campaign's failure summary carries the command's prefix
// once.
func TestExitCodeContract(t *testing.T) {
	forms := map[string]func(storeDir, outDir string) []string{
		"exhaustive": func(storeDir, outDir string) []string {
			return []string{"-q", "-machines", "icx", "-workloads", "jacobi", "-modes", "baseline",
				"-mesh", "1536x1536", "-maxrows", "8", "-ranks", "1,2,3,4", "-threads", "8", "-plot", "m",
				"-store", storeDir, "-out", outDir}
		},
		"adaptive": adaptiveArgs,
	}
	cases := []struct {
		name            string
		fail, interrupt bool
		want            int
	}{
		{"clean", false, false, ExitOK},
		{"failure", true, false, ExitRuntime},
		{"interrupt", false, true, ExitInterrupted},
		{"failure+interrupt", true, true, ExitInterrupted},
	}
	for form, argsOf := range forms {
		for _, c := range cases {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			runner := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
				first := false
				once.Do(func() { first = true })
				if first && c.interrupt {
					cancel()
				}
				if first && c.fail {
					return nil, errors.New("injected failure")
				}
				return frontierRunner(nil)(ctx, s)
			}
			dir := t.TempDir()
			args := append(argsOf(filepath.Join(dir, "store"), filepath.Join(dir, "out")), "-workers", "1")
			var stdout, stderr bytes.Buffer
			code := MainWithRunnerContext(ctx, args, &stdout, &stderr, runner)
			cancel()
			if code != c.want {
				t.Errorf("%s %s: exit %d, want %d; stderr:\n%s", form, c.name, code, c.want, stderr.Bytes())
			}
			if form == "exhaustive" && c.name == "failure" &&
				!strings.HasPrefix(stderr.String(), "sweep: 1 of 4 scenarios failed; first: ") {
				t.Errorf("%s %s: stderr\n%s\nwant one line starting \"sweep: 1 of 4 scenarios failed; first: \"", form, c.name, stderr.Bytes())
			}
		}
	}
}
