package bench

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloversim/internal/machine"
)

// updateGolden regenerates testdata/volumes.golden:
//
//	go test -run TestVolumesGolden -update-golden ./internal/bench
//
// A changed fixture means the simulated physics changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/volumes.golden")

// goldenCase is one microbenchmark run of the golden matrix.
type goldenCase struct {
	name string
	run  func() (Volumes, error)
}

// goldenCases is a small-size matrix over the three microbenchmarks:
// the store kernel on the two Intel evasion machines and on the ARM
// claim-zero and write-streaming machines, the copy kernel with and
// without halo gaps and prefetchers, and every registry kernel.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, name := range []string{machine.NameICX8360Y, machine.NameSPR8480, machine.NameA64FX, machine.NameNeoverseN1} {
		spec, _ := machine.ByName(name)
		for _, cores := range []int{1, spec.Cores() / 2, spec.Cores()} {
			for streams := 1; streams <= 3; streams++ {
				for _, nt := range []bool{false, true} {
					o := StoreOptions{Machine: spec, Streams: streams, NT: nt, Cores: cores, BytesPerStream: 128 << 10}
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("store %s cores=%d streams=%d nt=%v", name, cores, streams, nt),
						run: func() (Volumes, error) {
							r, err := RunStore(o)
							return r.V, err
						},
					})
				}
			}
		}
	}
	icx := machine.ICX8360Y()
	for _, inner := range []int{0, 216} {
		for _, halo := range []int{0, 8} {
			for _, pfOff := range []bool{false, true} {
				// 20 cores fill one ccNUMA domain and start the next:
				// two core groups under different pressure.
				o := CopyOptions{Machine: icx, Cores: 20, Inner: inner, Halo: halo, Elems: 1 << 14, PFOff: pfOff}
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("copy icx cores=20 inner=%d halo=%d pfoff=%v", inner, halo, pfOff),
					run: func() (Volumes, error) {
						r, err := RunCopy(o)
						return r.V, err
					},
				})
			}
		}
	}
	for _, k := range KernelNames() {
		for _, cores := range []int{1, icx.Cores()} {
			o := KernelOptions{Machine: icx, Kernel: k, Cores: cores, ElemsPerStream: 1 << 14}
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("kernel %s icx cores=%d", k, cores),
				run: func() (Volumes, error) {
					r, err := RunKernel(o)
					return r.V, err
				},
			})
		}
	}
	return cases
}

// TestVolumesGolden pins the bits of every Volumes field of the golden
// matrix, so a change to how the microbenchmarks drive the simulator
// that moves any volume by one bit fails here.
func TestVolumesGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases() {
		v, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s: read=%#x write=%#x itom=%#x nt=%#x\n", c.name,
			math.Float64bits(v.Read), math.Float64bits(v.Write), math.Float64bits(v.ItoM), math.Float64bits(v.NT))
	}
	path := filepath.Join("testdata", "volumes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create the fixture)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
