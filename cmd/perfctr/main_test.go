package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cloversim/internal/bench"
	"cloversim/internal/machine"
)

// updateGolden rewrites testdata/*.golden from this build:
//
//	go test ./cmd/perfctr -run TestGoldenOutput -update-golden
//
// The committed files were recorded by the build before perfctr read
// its groups from bench.Result; a changed file means the simulated
// physics or the tables changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden")

// TestGoldenOutput pins stdout byte for byte, across the three groups
// and their metric formulas, read-only, update, NT and multi-stream
// kernels, the prefetchers on and off, and two machines.
func TestGoldenOutput(t *testing.T) {
	pfOff := strings.Join(prefetchers, ",")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"mem_copy_c4", []string{"-g", "MEM", "-k", "copy", "-C", "4"}},
		{"mem_copy_c4_pfoff", []string{"-g", "MEM", "-k", "copy", "-C", "4", "-d", pfOff}},
		{"speci2m_c36", []string{"-g", "SPECI2M", "-C", "36"}},
		{"mem_dp_daxpy_c9", []string{"-g", "mem_dp", "-k", "daxpy", "-C", "9", "-elems", "100000"}},
		{"mem_sum_c2", []string{"-g", "MEM", "-k", "sum", "-C", "2"}},
		{"speci2m_store3_spr_c72", []string{"-g", "SPECI2M", "-k", "store3", "-C", "72", "-machine", "spr8480"}},
		{"mem_dp_update_c1", []string{"-g", "MEM_DP", "-k", "update", "-C", "1"}},
		{"speci2m_copy_mem_c17", []string{"-g", "SPECI2M", "-k", "copy_mem", "-C", "17"}},
		{"mem_store_mem_c72", []string{"-g", "MEM", "-k", "store_mem", "-C", "72"}},
		{"mem_dp_stream_c36_pfoff", []string{"-g", "MEM_DP", "-k", "stream", "-C", "36", "-d", pfOff}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q", c.args, code, stderr.String())
			continue
		}
		path := filepath.Join("testdata", c.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout\n%s\nwant (%s)\n%s", c.args, stdout.Bytes(), path, want)
		}
	}
}

// TestErrorsExitOne: a bad group, kernel, -d list, core count or size,
// and a stream past the simulated range, exit 1 with a message on
// stderr and nothing on stdout.
func TestErrorsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-g", "L2CACHE"},
		{"-k", "triad_sse"},
		{"-d", "HW_PREFETCHER,CL_PREFETCHER"},
		{"-C", "0"},
		{"-elems", "0"},
		{"-k", "copy", "-elems", "5000000000000"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "perfctr: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, a perfctr: message and no stdout", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestGroupLookup: group names resolve case-insensitively, an unknown
// one does not, and every event and metric a group names is one
// readings computes (a misspelt name would print 0).
func TestGroupLookup(t *testing.T) {
	for _, name := range []string{"MEM", "mem_dp", "SpecI2M"} {
		if g, ok := groupByName(name); !ok || !strings.EqualFold(g.name, name) {
			t.Errorf("group %q resolved to %q, %v", name, g.name, ok)
		}
	}
	if _, ok := groupByName("L2CACHE"); ok {
		t.Error("unknown group L2CACHE resolved")
	}
	all := readings(bench.Result{}, 1)
	for _, g := range groups {
		if len(g.events) == 0 || len(g.metrics) == 0 {
			t.Errorf("group %s is empty", g.name)
		}
		for _, name := range slices.Concat(g.events, g.metrics) {
			if _, ok := all[name]; !ok {
				t.Errorf("group %s prints %q, which is no reading", g.name, name)
			}
		}
	}
}

// TestReadingsFromResult: the events count the run's lines and flops,
// and every reading is one some group prints.
func TestReadingsFromResult(t *testing.T) {
	r := bench.Result{Kernel: bench.Kernel{FlopsPerElem: 11}, Iters: 1, V: bench.Volumes{Read: 64, Write: 128, ItoM: 192, NT: 256}}
	got := readings(r, 1)
	for name, want := range map[string]float64{
		"CAS_COUNT_RD": 1, "CAS_COUNT_WR": 2, "TOR_INSERTS_IA_ITOM": 3, "FP_ARITH_INST_RETIRED_SCALAR_DOUBLE": 11,
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
	printed := map[string]bool{}
	for _, g := range groups {
		for _, name := range slices.Concat(g.events, g.metrics) {
			printed[name] = true
		}
	}
	for name := range got {
		if !printed[name] {
			t.Errorf("reading %q is in no group", name)
		}
	}
}

// lines gives a run's volumes from cache-line counts.
func lines(rd, wr, itom float64) bench.Volumes {
	return bench.Volumes{Read: rd * 64, Write: wr * 64, ItoM: itom * 64}
}

// TestMeasureMEM: the MEM group's read volume and bandwidth from known
// line counts and time.
func TestMeasureMEM(t *testing.T) {
	got := readings(bench.Result{V: lines(1000, 500, 0)}, 2)
	if v := got["Memory read data volume [GBytes]"]; math.Abs(v-64000e-9) > 1e-15 {
		t.Errorf("read volume = %g", v)
	}
	if v := got["Memory bandwidth [MBytes/s]"]; math.Abs(v-1500*64*1e-6/2) > 1e-12 {
		t.Errorf("bandwidth = %g", v)
	}
}

// TestMeasureSPECI2M: Listing 4's headline metrics, the ItoM volume at
// the CHAs and the evasion ratio.
func TestMeasureSPECI2M(t *testing.T) {
	got := readings(bench.Result{V: lines(10, 1000, 900)}, 1)
	if v := got["SpecI2M data volume [GBytes]"]; math.Abs(v-900*64e-9) > 1e-15 {
		t.Errorf("ItoM volume = %g", v)
	}
	if v := got["SpecI2M evasion ratio"]; math.Abs(v-0.9) > 1e-12 {
		t.Errorf("evasion ratio = %g", v)
	}
}

// TestMeasureMEMDP: the MEM_DP group's flop rate and operational
// intensity from known flops, line counts and time.
func TestMeasureMEMDP(t *testing.T) {
	r := bench.Result{Kernel: bench.Kernel{FlopsPerElem: 1}, Iters: 12800, V: lines(100, 100, 0)}
	got := readings(r, 1)
	if v := got["DP [MFLOP/s]"]; math.Abs(v-0.0128) > 1e-12 {
		t.Errorf("MFLOP/s = %g", v)
	}
	if v := got["Operational intensity [FLOP/byte]"]; math.Abs(v-1.0) > 1e-12 {
		t.Errorf("intensity = %g", v)
	}
}

// TestZeroRunIsFinite: zero seconds or zero volumes give every metric a
// finite value, 0 where it divides by them.
func TestZeroRunIsFinite(t *testing.T) {
	flops := bench.Result{Kernel: bench.Kernel{FlopsPerElem: 2}, Iters: 100}
	for _, c := range []struct {
		r       bench.Result
		seconds float64
	}{{bench.Result{}, 0}, {bench.Result{}, 1}, {flops, 0}, {flops, 1}} {
		for name, v := range readings(c.r, c.seconds) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s = %g for %+v over %g s", name, v, c.r, c.seconds)
			}
		}
	}
}

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
