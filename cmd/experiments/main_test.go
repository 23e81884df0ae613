package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cloversim/internal/machine"
)

// TestUsageErrorsExitBeforeSimulating: a bad -exp, -machine or -ranks
// value, checked against every machine the run uses, exits 2 before any
// experiment runs, so no CSV is written.
func TestUsageErrorsExitBeforeSimulating(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "table1", "-machine", "nope"}, `unknown machine "nope"`},
		{[]string{"-exp", "scaling", "-ranks", "0,80"}, "-ranks entry 0 outside 1..72 of icx"},
		{[]string{"-exp", "stores", "-ranks", "80"}, "-ranks entry 80 outside 1..72 of icx"},
		{[]string{"-exp", "all", "-ranks", "1,104"}, "-ranks entry 104 outside 1..72 of icx"},
		{[]string{"-exp", "stores", "-machine", "spr8480", "-ranks", "x"}, `bad -ranks entry "x"`},
		{[]string{"-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"-exp", "halo", "-pfoff=false"}, "flag provided but not defined: -pfoff"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		var stdout, stderr bytes.Buffer
		if code := run(append(c.args, "-q", "-out", out), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", c.args, code, &stderr)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, &stderr, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) || stdout.Len() != 0 {
			t.Errorf("%v: ran experiments (stat %v, stdout %q)", c.args, err, &stdout)
		}
	}
}

// TestRunsOneExperiment: a valid run saves its CSV and names it.
func TestRunsOneExperiment(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "copyvol", "-ranks", "1,2", "-q", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	path := filepath.Join(out, "fig6_copy_volumes.csv")
	if got, want := stdout.String(), "== fig6_copy_volumes -> "+path+"\n"; got != want {
		t.Errorf("stdout %q, want %q", got, want)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want a header and 2 rows:\n%s", lines, csv)
	}
}

// TestFigure4RanksFitTheMachine: Fig. 4's default ranks follow the
// machine's topology, so -exp mpi runs on a64fx's 48 cores, and every
// rank count in its CSV is one the machine has.
func TestFigure4RanksFitTheMachine(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "mpi", "-machine", "a64fx", "-q", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	csv, err := os.ReadFile(filepath.Join(out, "fig4_mpi_share.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has no rows:\n%s", csv)
	}
	for _, line := range lines[1:] {
		ranks, err := strconv.Atoi(strings.Split(line, ",")[0])
		if err != nil || ranks < 1 || ranks > 48 {
			t.Errorf("row %q: rank count outside a64fx's 1..48 (%v)", line, err)
		}
	}
}

// TestJobListRunsEachFigureOnce: -exp all runs the nine experiments on
// -machine, then the SPR figures not already among them, so no preset
// simulates and writes one (experiment, machine) pair twice; on icx it
// is the 12 jobs whose CSVs are committed under testdata/figures.
func TestJobListRunsEachFigureOnce(t *testing.T) {
	for _, name := range machine.Names() {
		seen := map[job]bool{}
		for _, j := range jobList("all", name) {
			if seen[j] {
				t.Errorf("-machine %s runs %s on %s twice", name, j.exp, j.machine)
			}
			seen[j] = true
		}
	}
	want := []job{{"profile", "icx"}, {"table1", "icx"}, {"scaling", "icx"}, {"balance", "icx"},
		{"mpi", "icx"}, {"stores", "icx"}, {"copyvol", "icx"}, {"model", "icx"}, {"halo", "icx"},
		{"stores", "spr8470+s"}, {"stores", "spr8480"}, {"halo", "spr8480"}}
	if got := jobList("all", "icx"); !slices.Equal(got, want) {
		t.Errorf("-exp all runs %v, want %v", got, want)
	}
	if got := jobList("all", "spr8480"); len(got) != 10 {
		t.Errorf("-exp all -machine spr8480 runs %v, want the nine experiments and the spr8470+s stores", got)
	}
}
