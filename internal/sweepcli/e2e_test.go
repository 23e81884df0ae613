package sweepcli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cloversim"
	"cloversim/internal/sweep"
)

// updateGolden regenerates this package's e2e fixtures:
//
//	go test -run TestE2E -update-golden ./internal/sweepcli
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/e2e_*.golden fixtures")

// e2eArgs is the harness campaign: two machines x two workloads x
// three modes on a reduced mesh — small enough for every CI pass,
// broad enough to exercise multi-metric column union and the summary
// chart.
func e2eArgs(storeDir, outDir string) []string {
	return []string{
		"-q",
		"-machines", "icx,spr8480",
		"-workloads", "jacobi,stream",
		"-modes", "baseline,speci2m-off,nt",
		"-mesh", "1536x1536",
		"-maxrows", "8",
		"-ranks", "4",
		"-threads", "8",
		"-seed", "24301",
		"-plot", "jacobi_ratio",
		"-store", storeDir,
		"-out", outDir,
	}
}

// countRunner wraps the production runner and counts real simulations.
func countRunner(n *atomic.Int64) sweep.Runner {
	return func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		n.Add(1)
		return cloversim.RunScenarioContext(ctx, s)
	}
}

// normalize replaces run-specific temp paths so stdout can be compared
// across runs and against a committed fixture.
func normalize(out []byte, repl map[string]string) []byte {
	for from, to := range repl {
		out = bytes.ReplaceAll(out, []byte(from), []byte(to))
	}
	return out
}

// runCLI executes the CLI in-process, uncancellable, and returns exit
// code, stdout and stderr.
func runCLI(t *testing.T, args []string, runner sweep.Runner) (int, []byte, []byte) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := MainWithRunnerContext(context.Background(), args, &stdout, &stderr, runner)
	return code, stdout.Bytes(), stderr.Bytes()
}

// TestE2EResumableCampaign is the end-to-end lockdown of the tentpole:
// a cold run populates the store; a warm re-run in a fresh "process"
// (fresh engine, fresh streams) performs ZERO simulations yet produces
// byte-identical stdout, CSV and JSON; and both match committed golden
// fixtures.
func TestE2EResumableCampaign(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	outCold := filepath.Join(t.TempDir(), "cold")
	outWarm := filepath.Join(t.TempDir(), "warm")

	var coldSims atomic.Int64
	code, coldStdout, coldStderr := runCLI(t, e2eArgs(storeDir, outCold), countRunner(&coldSims))
	if code != ExitOK {
		t.Fatalf("cold run exit %d, stderr:\n%s", code, coldStderr)
	}
	if coldSims.Load() != 12 {
		t.Fatalf("cold run simulated %d scenarios, want 12", coldSims.Load())
	}

	var warmSims atomic.Int64
	code, warmStdout, warmStderr := runCLI(t, e2eArgs(storeDir, outWarm), countRunner(&warmSims))
	if code != ExitOK {
		t.Fatalf("warm run exit %d, stderr:\n%s", code, warmStderr)
	}
	if warmSims.Load() != 0 {
		t.Fatalf("warm run simulated %d scenarios, want 0 (store must serve every cell)", warmSims.Load())
	}

	// Stdout differs only in the -out path; normalized it must be
	// byte-identical.
	normCold := normalize(coldStdout, map[string]string{outCold: "$OUT"})
	normWarm := normalize(warmStdout, map[string]string{outWarm: "$OUT"})
	if !bytes.Equal(normCold, normWarm) {
		t.Errorf("warm stdout deviates from cold stdout:\ncold:\n%s\nwarm:\n%s", normCold, normWarm)
	}
	for _, name := range []string{"campaign.csv", "campaign.json"} {
		cold, err := os.ReadFile(filepath.Join(outCold, name))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(filepath.Join(outWarm, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("warm %s deviates from cold run", name)
		}
	}

	// Golden comparison against committed fixtures.
	stdoutPath := filepath.Join("testdata", "e2e_stdout.golden")
	csvPath := filepath.Join("testdata", "e2e_campaign.csv.golden")
	csv, err := os.ReadFile(filepath.Join(outCold, "campaign.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stdoutPath, normCold, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s and %s", stdoutPath, csvPath)
		return
	}
	wantStdout, err := os.ReadFile(stdoutPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create the fixture)", err)
	}
	if !bytes.Equal(normCold, wantStdout) {
		t.Errorf("stdout deviates from %s:\ngot:\n%s\nwant:\n%s", stdoutPath, normCold, wantStdout)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("campaign CSV deviates from %s:\ngot:\n%s\nwant:\n%s", csvPath, csv, wantCSV)
	}
}

// TestE2EPartialResume: an interrupted campaign (subset of the grid)
// leaves a partially warm store; the full campaign then simulates only
// the missing cells.
func TestE2EPartialResume(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")

	partial := e2eArgs(storeDir, filepath.Join(t.TempDir(), "p"))
	for i, a := range partial {
		if a == "baseline,speci2m-off,nt" {
			partial[i] = "baseline" // 4 of the 12 cells
		}
	}
	var sims atomic.Int64
	if code, _, errOut := runCLI(t, partial, countRunner(&sims)); code != ExitOK {
		t.Fatalf("partial run exit %d: %s", code, errOut)
	}
	if sims.Load() != 4 {
		t.Fatalf("partial run simulated %d, want 4", sims.Load())
	}

	sims.Store(0)
	if code, _, errOut := runCLI(t, e2eArgs(storeDir, filepath.Join(t.TempDir(), "f")), countRunner(&sims)); code != ExitOK {
		t.Fatalf("resumed run exit %d: %s", code, errOut)
	}
	if sims.Load() != 8 {
		t.Fatalf("resumed run simulated %d scenarios, want exactly the 8 cold ones", sims.Load())
	}
}

// TestE2EConflictingStoreReported: a store holding one scenario twice
// with different metric bits — a determinism violation — is named on
// stderr at open, while the warm run still exits 0 and serves the
// first record, so stdout, CSV and JSON match a clean warm run byte
// for byte.
func TestE2EConflictingStoreReported(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	if code, _, stderr := runCLI(t, e2eArgs(storeDir, filepath.Join(t.TempDir(), "cold")), cloversim.RunScenarioContext); code != ExitOK {
		t.Fatalf("cold run exit %d, stderr:\n%s", code, stderr)
	}
	outClean := filepath.Join(t.TempDir(), "clean")
	code, cleanStdout, cleanStderr := runCLI(t, e2eArgs(storeDir, outClean), cloversim.RunScenarioContext)
	if code != ExitOK || len(cleanStderr) != 0 {
		t.Fatalf("clean warm run exit %d, stderr:\n%s", code, cleanStderr)
	}

	// A second segment copies the first with one bits value changed in
	// its first record.
	seg, err := os.ReadFile(filepath.Join(storeDir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var first struct{ ID string }
	if err := json.Unmarshal(seg[:bytes.IndexByte(seg, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	bits := bytes.Index(seg, []byte(`"bits":"`)) + len(`"bits":"`)
	if seg[bits] == '1' {
		seg[bits] = '2'
	} else {
		seg[bits] = '1'
	}
	if err := os.WriteFile(filepath.Join(storeDir, "seg-000002.jsonl"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	outWarm := filepath.Join(t.TempDir(), "warm")
	var sims atomic.Int64
	code, warmStdout, warmStderr := runCLI(t, e2eArgs(storeDir, outWarm), countRunner(&sims))
	if code != ExitOK || sims.Load() != 0 {
		t.Fatalf("warm run over a conflicting store: exit %d, %d simulations, stderr:\n%s", code, sims.Load(), warmStderr)
	}
	if !strings.Contains(string(warmStderr), "CONFLICTING") || !strings.Contains(string(warmStderr), first.ID) {
		t.Fatalf("stderr does not name conflicting record %s:\n%s", first.ID, warmStderr)
	}
	normClean := normalize(cleanStdout, map[string]string{outClean: "$OUT"})
	normWarm := normalize(warmStdout, map[string]string{outWarm: "$OUT"})
	if !bytes.Equal(normClean, normWarm) {
		t.Errorf("stdout over a conflicting store deviates from the clean warm run:\nclean:\n%s\nwarm:\n%s", normClean, normWarm)
	}
	for _, name := range []string{"campaign.csv", "campaign.json"} {
		clean, err := os.ReadFile(filepath.Join(outClean, name))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(filepath.Join(outWarm, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(clean, warm) {
			t.Errorf("%s over a conflicting store deviates from the clean warm run", name)
		}
	}
}

// TestExitCodeOnScenarioFailure is the regression lock for the exit
// status contract: scenario failures inside the worker pool must
// surface as a non-zero exit even though the campaign completes and
// both output files are written.
func TestExitCodeOnScenarioFailure(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "out")
	boom := errors.New("injected failure")
	failing := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Mode.Name == "nt" {
			return nil, boom
		}
		return cloversim.RunScenarioContext(ctx, s)
	}
	args := append([]string{}, e2eArgs(filepath.Join(t.TempDir(), "store"), outDir)...)
	code, _, stderr := runCLI(t, args, failing)
	if code != ExitRuntime {
		t.Fatalf("exit code %d with failing scenarios, want %d", code, ExitRuntime)
	}
	if !strings.Contains(string(stderr), "injected failure") {
		t.Errorf("stderr does not name the failure:\n%s", stderr)
	}
	// Error isolation: the emitters still ran.
	for _, name := range []string{"campaign.csv", "campaign.json"} {
		if _, err := os.Stat(filepath.Join(outDir, name)); err != nil {
			t.Errorf("failed campaign did not write %s: %v", name, err)
		}
	}
	// And the failures were not persisted: a retry with a healed runner
	// succeeds and exits 0 from the same store.
	var sims atomic.Int64
	code, _, stderr = runCLI(t, args, countRunner(&sims))
	if code != ExitOK {
		t.Fatalf("healed retry exit %d: %s", code, stderr)
	}
	if sims.Load() != 4 {
		t.Fatalf("healed retry simulated %d scenarios, want the 4 previously failed", sims.Load())
	}
}

// TestE2EEmptySubdomainFails: a CloverLeaf cell whose decomposition
// leaves a rank without cells (5 ranks cut a 4-column mesh into 5 x
// chunks) fails instead of reporting NaN metrics: the run exits 1, the
// cell's row reads error, and the store keeps nothing to serve.
func TestE2EEmptySubdomainFails(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	args := func(out string) []string {
		return []string{"-q", "-machines", "icx", "-workloads", "cloverleaf", "-modes", "baseline",
			"-ranks", "5", "-mesh", "4x4", "-store", storeDir, "-out", out}
	}
	for run := 0; run < 2; run++ {
		out := filepath.Join(t.TempDir(), "out")
		var sims atomic.Int64
		code, _, stderr := runCLI(t, args(out), countRunner(&sims))
		if code != ExitRuntime {
			t.Fatalf("run %d: exit %d, want %d; stderr:\n%s", run, code, ExitRuntime, stderr)
		}
		if sims.Load() != 1 {
			t.Errorf("run %d simulated %d cells, want 1: a failed cell is never served from the store", run, sims.Load())
		}
		csv, err := os.ReadFile(filepath.Join(out, "campaign.csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
		if len(lines) != 2 || !strings.HasSuffix(lines[1], ",error: cloverleaf: 5 ranks leave rank 4 of the 4x4 mesh without cells") {
			t.Errorf("run %d campaign.csv:\n%s", run, csv)
		}
	}
}

// TestExitCodeOnUsageError: unknown axis values are usage errors.
func TestExitCodeOnUsageError(t *testing.T) {
	cases := [][]string{
		{"-machines", "nonexistent"},
		{"-workloads", "nonexistent"},
		{"-modes", "nonexistent"},
		{"-mesh", "bogus"},
		{"-ranks", "x"},
		{"-nosuchflag"},
	}
	// Out-of-range numbers on a one-cell grid, which would otherwise run.
	for _, bad := range [][]string{{"-ranks", "-5"}, {"-threads", "-2"}, {"-maxrows", "-7"}, {"-workers", "-3"}} {
		cases = append(cases, append([]string{"-q", "-machines", "icx", "-workloads", "stream",
			"-modes", "baseline", "-mesh", "64x64", "-out", t.TempDir()}, bad...))
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args, cloversim.RunScenarioContext); code != ExitUsage {
			t.Errorf("args %v exit %d, want %d", args, code, ExitUsage)
		}
	}
}

// TestExitCodeOnStoreWriteFailure: a store that cannot accept writes
// must fail the run (resumability silently lost is an error), while
// still emitting results.
func TestExitCodeOnStoreWriteFailure(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(storeDir, 0o555); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, e2eArgs(storeDir, filepath.Join(t.TempDir(), "out")), cloversim.RunScenarioContext)
	if code != ExitRuntime {
		t.Fatalf("exit %d with unwritable store, want %d; stderr:\n%s", code, ExitRuntime, stderr)
	}
}
