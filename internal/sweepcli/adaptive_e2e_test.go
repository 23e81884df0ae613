package sweepcli

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

// adaptiveArgs is the harness adaptive campaign: a single track with
// the ranks axis bracketed at [1, 256], searched for the frontier of a
// synthetic metric with a known flip between 37 and 38.
func adaptiveArgs(storeDir, outDir string) []string {
	return []string{
		"-q",
		"-machines", "icx",
		"-workloads", "jacobi",
		"-modes", "baseline",
		"-mesh", "1536x1536",
		"-maxrows", "8",
		"-ranks", "1,256",
		"-threads", "8",
		"-seed", "24301",
		"-adaptive", "ranks",
		"-target", "gt:m:0",
		"-store", storeDir,
		"-out", outDir,
	}
}

// frontierRunner is the synthetic physics behind adaptiveArgs: metric m
// crosses zero between ranks 37 and 38, deterministically, so the e2e
// suite can assert the exact bracket without paying for real memsim
// runs per probe.
func frontierRunner(n *atomic.Int64) sweep.Runner {
	return func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if n != nil {
			n.Add(1)
		}
		var m sweep.Metrics
		m.Add("m", float64(s.Ranks)-37.5)
		return m, nil
	}
}

// startFrontierFleet is startFleet with the synthetic frontier runner
// on every worker, so the fleet and the local adaptive runs execute
// identical physics.
func startFrontierFleet(t *testing.T, n int) (string, []*atomic.Int64) {
	t.Helper()
	urls := make([]string, n)
	sims := make([]*atomic.Int64, n)
	for i := range urls {
		st, err := store.Open(filepath.Join(t.TempDir(), "wstore"), cloversim.PhysicsVersion)
		if err != nil {
			t.Fatal(err)
		}
		count := &atomic.Int64{}
		sims[i] = count
		srv := sweepd.New(st, frontierRunner(count), 2)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); st.Close() })
		urls[i] = ts.URL
	}
	return strings.Join(urls, ","), sims
}

// TestE2EAdaptiveLocalFleetByteIdentity is the end-to-end lockdown of
// the adaptive tentpole: the same search run locally, sharded across a
// fleet, and warm from the fleet-populated store must produce
// byte-identical frontier.csv, frontier.json and (normalized) stdout;
// the fleet client simulates nothing; the warm run simulates nothing
// anywhere; and the whole search costs <= 1/10 of the 256-cell
// exhaustive cross product.
func TestE2EAdaptiveLocalFleetByteIdentity(t *testing.T) {
	outLocal := filepath.Join(t.TempDir(), "local")
	outFleet := filepath.Join(t.TempDir(), "fleet")
	storeLocal := filepath.Join(t.TempDir(), "slocal")
	storeFleet := filepath.Join(t.TempDir(), "sfleet")

	var localSims atomic.Int64
	code, localStdout, localStderr := runCLI(t, adaptiveArgs(storeLocal, outLocal), frontierRunner(&localSims))
	if code != ExitOK {
		t.Fatalf("local adaptive run exit %d, stderr:\n%s", code, localStderr)
	}
	if localSims.Load() == 0 || localSims.Load() > 25 {
		t.Fatalf("local adaptive run simulated %d cells, want 1..25 (<= 1/10 of the 256-cell cross product)", localSims.Load())
	}

	// The bracket is exact: the frontier row pins [37, 38].
	csv, err := os.ReadFile(filepath.Join(outLocal, "frontier.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), ",37,38,") {
		t.Errorf("frontier.csv does not bracket [37, 38]:\n%s", csv)
	}

	hosts, workerSims := startFrontierFleet(t, 3)
	var clientSims atomic.Int64
	args := append(adaptiveArgs(storeFleet, outFleet), "-workers", hosts)
	code, fleetStdout, fleetStderr := runCLI(t, args, frontierRunner(&clientSims))
	if code != ExitOK {
		t.Fatalf("fleet adaptive run exit %d, stderr:\n%s", code, fleetStderr)
	}
	if clientSims.Load() != 0 {
		t.Fatalf("fleet adaptive run simulated %d cells locally, want 0", clientSims.Load())
	}
	var total int64
	for _, s := range workerSims {
		total += s.Load()
	}
	if total != localSims.Load() {
		t.Fatalf("fleet simulated %d cells in aggregate, want the local run's %d (identical trajectory, no lost or duplicated probes)",
			total, localSims.Load())
	}

	normLocal := normalize(localStdout, map[string]string{outLocal: "$OUT", storeLocal: "$STORE"})
	normFleet := normalize(fleetStdout, map[string]string{outFleet: "$OUT", storeFleet: "$STORE"})
	if !bytes.Equal(normLocal, normFleet) {
		t.Errorf("fleet stdout deviates from local stdout:\nlocal:\n%s\nfleet:\n%s", normLocal, normFleet)
	}
	for _, name := range []string{"frontier.csv", "frontier.json"} {
		local, err := os.ReadFile(filepath.Join(outLocal, name))
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := os.ReadFile(filepath.Join(outFleet, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, fleet) {
			t.Errorf("fleet %s deviates from local run:\nlocal:\n%s\nfleet:\n%s", name, local, fleet)
		}
	}

	// Write-through: the fleet's results landed in the client store, so
	// a warm local re-run simulates nothing and emits the same bytes.
	outWarm := filepath.Join(t.TempDir(), "warm")
	var warmSims atomic.Int64
	code, warmStdout, warmStderr := runCLI(t, adaptiveArgs(storeFleet, outWarm), frontierRunner(&warmSims))
	if code != ExitOK {
		t.Fatalf("warm adaptive run exit %d, stderr:\n%s", code, warmStderr)
	}
	if warmSims.Load() != 0 {
		t.Fatalf("warm adaptive run simulated %d cells, want 0 (store must serve every probe)", warmSims.Load())
	}
	normWarm := normalize(warmStdout, map[string]string{outWarm: "$OUT", storeFleet: "$STORE"})
	if !bytes.Equal(normLocal, normWarm) {
		t.Errorf("warm stdout deviates from cold stdout:\ncold:\n%s\nwarm:\n%s", normLocal, normWarm)
	}
	for _, name := range []string{"frontier.csv", "frontier.json"} {
		cold, err := os.ReadFile(filepath.Join(outLocal, name))
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
}

// TestE2EAdaptiveUsageErrors: the adaptive flag surface rejects
// malformed invocations as usage errors (exit 2) that name the flag at
// fault, before any work runs and before any side effect. Each case
// runs once with a -store, which must not be created, and once more
// with a fleet in -workers too: 127.0.0.1:1 refuses connections, so a
// check that came after the fleet probe would exit 1 instead.
func TestE2EAdaptiveUsageErrors(t *testing.T) {
	cases := []struct {
		flag  string // the flag the message must name
		extra []string
	}{
		{"-target", []string{"-adaptive", "ranks"}},
		{"-adaptive", []string{"-target", "gt:m:0"}},
		{"-adaptive", []string{"-target", "lt:x:1"}},
		{"-adaptive", []string{"-adaptive", "seed", "-target", "gt:m:0"}},
		{"-adaptive", []string{"-adaptive", "bogus", "-target", "lt:jacobi_ratio:1.2"}},
		{"-target", []string{"-adaptive", "ranks", "-target", "sign:m"}},
		{"-ranks", []string{"-adaptive", "ranks", "-target", "gt:m:0", "-ranks", "4"}}, // one seed cannot bracket
		{"-modes", []string{"-adaptive", "ranks", "-target", "delta:m:nt/baseline", "-ranks", "1,8", "-modes", "baseline"}},
		{"-tol", []string{"-adaptive", "ranks", "-target", "gt:m:0", "-tol", "0"}},
		{"-tol", []string{"-adaptive", "ranks", "-target", "gt:m:0", "-tol", "-7"}},
		{"-max-rounds", []string{"-adaptive", "ranks", "-target", "gt:m:0", "-max-rounds", "0"}},
		{"-max-rounds", []string{"-adaptive", "ranks", "-target", "gt:m:0", "-max-rounds", "-4"}},
	}
	for _, c := range cases {
		for _, fleet := range [][]string{nil, {"-workers", "127.0.0.1:1"}} {
			dir := t.TempDir()
			storeDir := filepath.Join(dir, "st")
			args := append([]string{"-q", "-machines", "icx", "-workloads", "jacobi",
				"-ranks", "1,256", "-store", storeDir, "-out", filepath.Join(dir, "o")}, fleet...)
			args = append(args, c.extra...)
			var sims atomic.Int64
			code, _, stderr := runCLI(t, args, frontierRunner(&sims))
			if code != ExitUsage {
				t.Errorf("args %v %v exit %d, want %d; stderr:\n%s", fleet, c.extra, code, ExitUsage, stderr)
			}
			if !strings.Contains(string(stderr), c.flag) {
				t.Errorf("args %v %v: stderr does not name %s:\n%s", fleet, c.extra, c.flag, stderr)
			}
			if _, err := os.Stat(storeDir); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("args %v %v left a store directory behind (stat: %v)", fleet, c.extra, err)
			}
			if sims.Load() != 0 {
				t.Errorf("args %v %v simulated %d cells before failing usage", fleet, c.extra, sims.Load())
			}
		}
	}
}

// TestE2EAdaptiveDeltaTarget drives the mode-pair predicate through
// the CLI: nt beats baseline below rank 41, and the emitted frontier
// brackets [40, 41] with the mode column carrying the pair.
func TestE2EAdaptiveDeltaTarget(t *testing.T) {
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		switch s.Mode.Name {
		case "baseline":
			m.Add("ratio", 1.5)
		case "nt":
			if s.Ranks <= 40 {
				m.Add("ratio", 1.0)
			} else {
				m.Add("ratio", 2.0)
			}
		}
		return m, nil
	}
	out := filepath.Join(t.TempDir(), "out")
	args := []string{
		"-q", "-machines", "icx", "-workloads", "jacobi",
		"-mesh", "1536x1536", "-maxrows", "8", "-ranks", "1,128", "-threads", "8",
		"-adaptive", "ranks", "-target", "delta:ratio:nt/baseline",
		"-out", out,
	}
	code, stdout, stderr := runCLI(t, args, run)
	if code != ExitOK {
		t.Fatalf("delta adaptive run exit %d, stderr:\n%s", code, stderr)
	}
	csv, err := os.ReadFile(filepath.Join(out, "frontier.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), ",40,41,") {
		t.Errorf("frontier.csv does not bracket [40, 41]:\n%s", csv)
	}
	if !strings.Contains(string(csv), "nt/baseline") {
		t.Errorf("frontier.csv mode column does not carry the pair:\n%s", csv)
	}
	if !strings.Contains(string(stdout), "frontier=1 intervals") {
		t.Errorf("summary does not report one frontier interval:\n%s", stdout)
	}
}

// TestE2EAdaptiveSharesStoreWithExhaustive: adaptive probes are plain
// campaign cells — an exhaustive run over the same scenarios is served
// entirely from the store an adaptive search populated.
func TestE2EAdaptiveSharesStoreWithExhaustive(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	var adaptiveSims atomic.Int64
	code, _, stderr := runCLI(t, adaptiveArgs(storeDir, filepath.Join(t.TempDir(), "a")), frontierRunner(&adaptiveSims))
	if code != ExitOK {
		t.Fatalf("adaptive run exit %d, stderr:\n%s", code, stderr)
	}
	// Exhaustively enumerate two cells the search must have visited:
	// its bracketing seeds.
	var sims atomic.Int64
	args := []string{
		"-q",
		"-machines", "icx", "-workloads", "jacobi", "-modes", "baseline",
		"-mesh", "1536x1536", "-maxrows", "8", "-ranks", "1,256", "-threads", "8",
		"-seed", "24301", "-plot", "m",
		"-store", storeDir, "-out", filepath.Join(t.TempDir(), "x"),
	}
	code, _, stderr = runCLI(t, args, frontierRunner(&sims))
	if code != ExitOK {
		t.Fatalf("exhaustive run exit %d, stderr:\n%s", code, stderr)
	}
	if sims.Load() != 0 {
		t.Errorf("exhaustive run over visited cells simulated %d, want 0 (adaptive probes are ordinary store records)", sims.Load())
	}
}

// TestE2EAdaptiveReadmeExamples runs README's two adaptive examples on
// the real simulator and asserts the frontiers README quotes: where nt
// stops beating baseline on jacobi as threads grow, and where jacobi's
// layer condition breaks as rows grow. The mesh search runs on icx
// only: each of its 16 rounds simulates rows of up to 131072 columns,
// and spr8480's track would double the test's time. The first
// example's frontier.csv and frontier.json are compared byte for byte
// with committed fixtures (testdata/e2e_frontier.*.golden, rewritten by
// -update-golden).
func TestE2EAdaptiveReadmeExamples(t *testing.T) {
	cases := []struct {
		args     []string
		summary  string
		frontier []string // machine:lo:hi of each frontier row
		golden   bool
	}{
		{
			args: []string{"-machines", "icx,spr8480", "-workloads", "jacobi", "-threads", "1,36",
				"-adaptive", "threads", "-target", "delta:jacobi_ratio:nt/baseline"},
			summary:  "rounds=6 visited=18 cells frontier=1 intervals",
			frontier: []string{"icx:19:20"},
			golden:   true,
		},
		{
			args: []string{"-machines", "icx", "-workloads", "jacobi", "-modes", "nt",
				"-mesh", "16384x16,131072x16",
				"-adaptive", "mesh", "-target", "model:jacobi_total_bpi:jacobi_bytes_lcf:0.25"},
			summary:  "rounds=16 visited=17 cells frontier=1 intervals",
			frontier: []string{"icx:79926x16:79930x16"},
		},
	}
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "out")
		args := append([]string{"-q", "-out", out}, c.args...)
		code, stdout, stderr := runCLI(t, args, cloversim.RunScenarioContext)
		if code != ExitOK {
			t.Fatalf("%v: exit %d, stderr:\n%s", c.args, code, stderr)
		}
		if !strings.Contains(string(stdout), c.summary) {
			t.Errorf("%v: summary lacks %q:\n%s", c.args, c.summary, stdout)
		}
		data, err := os.ReadFile(filepath.Join(out, "frontier.csv"))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Split(line, ",")
			if f[0] == "frontier" {
				got = append(got, f[1]+":"+f[10]+":"+f[11])
			}
		}
		if strings.Join(got, " ") != strings.Join(c.frontier, " ") {
			t.Errorf("%v: frontier %v, want %v", c.args, got, c.frontier)
		}
		if !c.golden {
			continue
		}
		for _, name := range []string{"frontier.csv", "frontier.json"} {
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "e2e_"+name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v: %s deviates from %s:\ngot:\n%s\nwant:\n%s", c.args, name, golden, got, want)
			}
		}
	}
}
