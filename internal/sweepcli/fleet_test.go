package sweepcli

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweepd"
)

// startFleet brings up n in-process sweepd workers, each with its own
// store and a counting production runner, and returns the -workers
// flag value plus the per-worker simulation counters.
func startFleet(t *testing.T, n int) (string, []*atomic.Int64) {
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
		srv := sweepd.New(st, countRunner(count), 2)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); st.Close() })
		urls[i] = ts.URL
	}
	return strings.Join(urls, ","), sims
}

// TestE2EFleetByteIdentity is the end-to-end lockdown of the dispatch
// tentpole: the harness campaign sharded across a fleet of three
// in-process sweepd workers must produce byte-identical stdout, CSV
// and JSON to a local cold run; every cold cell must simulate on the
// fleet (zero local simulations, exactly twelve in aggregate); and the
// write-through of remote results into the client's -store must make
// the distributed campaign resumable exactly like a local one.
func TestE2EFleetByteIdentity(t *testing.T) {
	outLocal := filepath.Join(t.TempDir(), "local")
	outFleet := filepath.Join(t.TempDir(), "fleet")
	storeLocal := filepath.Join(t.TempDir(), "slocal")
	storeFleet := filepath.Join(t.TempDir(), "sfleet")

	var localSims atomic.Int64
	code, localStdout, localStderr := runCLI(t, e2eArgs(storeLocal, outLocal), countRunner(&localSims))
	if code != ExitOK {
		t.Fatalf("local run exit %d, stderr:\n%s", code, localStderr)
	}
	if localSims.Load() != 12 {
		t.Fatalf("local cold run simulated %d scenarios, want 12", localSims.Load())
	}

	hosts, workerSims := startFleet(t, 3)
	var clientSims atomic.Int64
	args := append(e2eArgs(storeFleet, outFleet), "-workers", hosts)
	code, fleetStdout, fleetStderr := runCLI(t, args, countRunner(&clientSims))
	if code != ExitOK {
		t.Fatalf("fleet run exit %d, stderr:\n%s", code, fleetStderr)
	}
	if clientSims.Load() != 0 {
		t.Fatalf("fleet run simulated %d scenarios locally, want 0 (the fleet owns execution)", clientSims.Load())
	}
	var total int64
	for _, s := range workerSims {
		total += s.Load()
	}
	if total != 12 {
		t.Fatalf("fleet simulated %d scenarios in aggregate, want exactly 12 (no lost or duplicated cells)", total)
	}

	// Byte-identity: a sharded campaign must be indistinguishable from
	// a local one on every output surface.
	normLocal := normalize(localStdout, map[string]string{outLocal: "$OUT", storeLocal: "$STORE"})
	normFleet := normalize(fleetStdout, map[string]string{outFleet: "$OUT", storeFleet: "$STORE"})
	if !bytes.Equal(normLocal, normFleet) {
		t.Errorf("fleet stdout deviates from local stdout:\nlocal:\n%s\nfleet:\n%s", normLocal, normFleet)
	}
	for _, name := range []string{"campaign.csv", "campaign.json"} {
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

	// Resumability: remote results were written through to the client
	// store, so a local warm re-run simulates nothing anywhere.
	var warmSims atomic.Int64
	code, _, warmStderr := runCLI(t, e2eArgs(storeFleet, filepath.Join(t.TempDir(), "warm")), countRunner(&warmSims))
	if code != ExitOK {
		t.Fatalf("warm run exit %d, stderr:\n%s", code, warmStderr)
	}
	if warmSims.Load() != 0 {
		t.Fatalf("warm run after a fleet campaign simulated %d scenarios, want 0 (write-through must persist remote results)", warmSims.Load())
	}
}

// TestFleetUsageErrors: a -workers value that is neither a count nor a
// URL list is a usage error; an unreachable fleet is a runtime error.
func TestFleetUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, []string{"-workers", ","}, nil); code != ExitUsage {
		t.Errorf("-workers ',' exit %d, want %d", code, ExitUsage)
	}
	args := append(e2eArgs(filepath.Join(t.TempDir(), "s"), filepath.Join(t.TempDir(), "o")),
		"-workers", "127.0.0.1:1")
	if code, _, _ := runCLI(t, args, nil); code != ExitRuntime {
		t.Errorf("unreachable fleet exit %d, want %d", code, ExitRuntime)
	}
}
