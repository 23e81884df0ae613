package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExitBeforeStoreOpens: each bad flag value exits 2 with
// a message naming it, before the store directory is created.
func TestUsageErrorsExitBeforeStoreOpens(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-store is required"},
		{[]string{"-workers", "-3"}, "bad -workers -3"},
		{[]string{"-max-cells", "0"}, "bad -max-cells 0"},
		{[]string{"-max-cells", "-5"}, "bad -max-cells -5"},
		{[]string{"-expand-timeout", "-1s"}, "bad -expand-timeout -1s"},
		{[]string{"-drain-timeout", "-1s"}, "bad -drain-timeout -1s"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		// An unservable address: a value that slipped past the checks
		// ends the test binary at listen instead of serving forever.
		args := append([]string{"-addr", "127.0.0.1:99999"}, c.args...)
		if c.want != "-store is required" {
			args = append(args, "-store", dir)
		}
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", args, code, &stderr)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", args, &stderr, c.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: store directory exists (stat %v)", args, err)
		}
	}
}
