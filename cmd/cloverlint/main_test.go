package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the suite's own acceptance gate: the shipped
// tree must produce zero findings. If this fails, either fix the code
// or annotate it with a reasoned //lint:allow.
func TestRepoIsLintClean(t *testing.T) {
	t.Chdir("../..")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("cloverlint ./... = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	for _, name := range []string{"mapiter", "exactbits", "ctxflow", "nondet"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownOnly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-only=bogus = %d, want 2", code)
	}
}
