package main

import (
	"strings"
	"testing"

	"cloversim/internal/bench"
	"cloversim/internal/machine"
)

// TestPrefetchDisableList: the model switches the four prefetchers as
// one, so -d names all four (off) or none (on); anything else is an
// error rather than a list that silently changes nothing.
func TestPrefetchDisableList(t *testing.T) {
	for _, c := range []struct {
		list    string
		off     bool
		wantErr string
	}{
		{"", false, ""},
		{"HW_PREFETCHER,CL_PREFETCHER,DCU_PREFETCHER,IP_PREFETCHER", true, ""},
		{"ip_prefetcher, dcu_prefetcher ,CL_PREFETCHER,hw_prefetcher", true, ""},
		{"HW_PREFETCHER,CL_PREFETCHER", false, "switches HW_PREFETCHER, CL_PREFETCHER, DCU_PREFETCHER, IP_PREFETCHER as one"},
		{"HW_PREFETCHER,DCU_PREFETCHER,IP_PREFETCHER", false, "name all four or none"},
		{"TURBO_BOOST", false, `unknown feature "TURBO_BOOST"`},
	} {
		off, err := parseDisable(c.list)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("-d %q: %v", c.list, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("-d %q: error %v, want one saying %q", c.list, err, c.wantErr)
		case off != c.off:
			t.Errorf("-d %q: prefetchers off = %v, want %v", c.list, off, c.off)
		}
	}
}

// TestPrefetchDisableApply: the switch parseDisable returns reaches the
// kernel run. With all four prefetchers named, one core's copy reads
// exactly the lines of its source and of its write-allocated destination;
// with the empty list the prefetchers stay on and read past the end.
func TestPrefetchDisableApply(t *testing.T) {
	readLines := func(list string) float64 {
		t.Helper()
		off, err := parseDisable(list)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.RunKernel(bench.KernelOptions{
			Machine: machine.ICX8360Y(), Kernel: "copy", Cores: 1,
			ElemsPerStream: 16 << 10, PFOff: off,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.V.Read / 64
	}
	on := readLines("")
	off := readLines(strings.Join(prefetchers, ","))
	if off == on {
		t.Errorf("read %v lines with the prefetchers on and off alike; -d did not reach the hierarchy", on)
	}
	if off != 4096 {
		t.Errorf("prefetchers off: read %v lines, want 4096 (16Ki-element source plus write-allocated destination)", off)
	}
}
