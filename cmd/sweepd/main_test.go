package main

import (
	"bytes"
	"net"
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
		// fails at the bind instead of serving forever.
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

// TestUnbindableAddressExitsBeforeStoreOpens: an address sweepd cannot
// bind — an invalid port, or one another listener holds — exits 1 from
// run with the error on stderr, before the store directory is created
// and without claiming to listen.
func TestUnbindableAddressExitsBeforeStoreOpens(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, c := range []struct{ addr, want string }{
		{"127.0.0.1:99999", "invalid port"},
		{held.Addr().String(), "address already in use"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		var stderr bytes.Buffer
		if code := run([]string{"-store", dir, "-addr", c.addr}, &stderr); code != 1 {
			t.Errorf("-addr %s: exit %d, want 1; stderr:\n%s", c.addr, code, &stderr)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("-addr %s: stderr %q does not say %q", c.addr, &stderr, c.want)
		}
		if strings.Contains(stderr.String(), "listening on") {
			t.Errorf("-addr %s: stderr claims to listen:\n%s", c.addr, &stderr)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-addr %s: store directory exists (stat %v)", c.addr, err)
		}
	}
}
