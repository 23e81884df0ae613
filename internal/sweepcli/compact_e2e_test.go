package sweepcli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestE2ECompactedStoreByteIdentity: compaction is invisible to
// campaigns. A cold run populates a multi-record store; -store-compact
// rewrites it into one segment and nothing else; a warm run in a fresh
// "process" then performs ZERO simulations and produces stdout, CSV
// and JSON byte-identical to the uncompacted cold run.
func TestE2ECompactedStoreByteIdentity(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	outCold := filepath.Join(t.TempDir(), "cold")
	outWarm := filepath.Join(t.TempDir(), "warm")

	var coldSims atomic.Int64
	code, coldStdout, coldStderr := runCLI(t, e2eArgs(storeDir, outCold), countRunner(&coldSims))
	if code != ExitOK {
		t.Fatalf("cold run exit %d, stderr:\n%s", code, coldStderr)
	}

	code, compactStdout, compactStderr := runCLI(t,
		[]string{"-store", storeDir, "-store-compact"}, countRunner(&coldSims))
	if code != ExitOK {
		t.Fatalf("-store-compact exit %d, stderr:\n%s", code, compactStderr)
	}
	if !strings.Contains(string(compactStdout), "compacted") {
		t.Fatalf("-store-compact stdout missing report:\n%s", compactStdout)
	}
	files, err := filepath.Glob(filepath.Join(storeDir, "*"))
	if err != nil || len(files) != 1 || filepath.Ext(files[0]) != ".jsonl" {
		t.Fatalf("files after compact: %v (%v), want exactly one segment and no .idx", files, err)
	}

	var warmSims atomic.Int64
	code, warmStdout, warmStderr := runCLI(t, e2eArgs(storeDir, outWarm), countRunner(&warmSims))
	if code != ExitOK {
		t.Fatalf("warm run exit %d, stderr:\n%s", code, warmStderr)
	}
	if warmSims.Load() != 0 {
		t.Fatalf("warm run after compact simulated %d scenarios, want 0", warmSims.Load())
	}

	normCold := normalize(coldStdout, map[string]string{outCold: "$OUT"})
	normWarm := normalize(warmStdout, map[string]string{outWarm: "$OUT"})
	if !bytes.Equal(normCold, normWarm) {
		t.Errorf("warm stdout after compact deviates from cold:\ncold:\n%s\nwarm:\n%s", normCold, normWarm)
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
			t.Errorf("warm %s after compact deviates from uncompacted cold run", name)
		}
	}
}

// TestCompactFlagUsage: -store-compact without a store is a usage
// error, and a fresh empty store compacts cleanly (exit 0).
func TestCompactFlagUsage(t *testing.T) {
	code, _, stderr := runCLI(t, []string{"-store-compact"}, nil)
	if code != ExitUsage {
		t.Fatalf("-store-compact without -store: exit %d, want %d\n%s", code, ExitUsage, stderr)
	}
	code, _, stderr = runCLI(t, []string{"-store", filepath.Join(t.TempDir(), "s"), "-store-compact"}, nil)
	if code != ExitOK {
		t.Fatalf("compact of empty store: exit %d\n%s", code, stderr)
	}
}
