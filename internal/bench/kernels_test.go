package bench

import (
	"math"
	"strings"
	"testing"

	"cloversim/internal/machine"
)

func TestKernelRegistry(t *testing.T) {
	names := KernelNames()
	if len(names) < 10 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		k, ok := KernelByName(n)
		if !ok || k.Name != n {
			t.Errorf("kernel %s not resolvable", n)
		}
	}
	if _, ok := KernelByName("triad_sse"); ok {
		t.Error("bogus kernel resolved")
	}
}

func TestKernelClasses(t *testing.T) {
	cases := map[string]machine.KernelClass{
		"store":  machine.ClassPureStore,
		"store3": machine.ClassPureStore,
		"copy":   machine.ClassCopy,
		"stream": machine.ClassStencil,
	}
	for name, want := range cases {
		k, _ := KernelByName(name)
		if k.Class() != want {
			t.Errorf("%s class = %v, want %v", name, k.Class(), want)
		}
	}
}

// TestRunKernelStoreMatchesRunStore: the table's store kernels are
// RunStore and its copy kernels RunCopy with Inner 0, bit for bit in
// every volume, although RunKernel works its streams 512 elements at a
// time and the other two work each stream whole: at equal seed and
// size, on every preset, at one, half and all cores, with the
// prefetchers on and off.
func TestRunKernelStoreMatchesRunStore(t *testing.T) {
	const elems, seed = 1 << 13, 0x5eed
	for _, spec := range machine.AllPresets() {
		for _, cores := range []int{1, spec.Cores() / 2, spec.Cores()} {
			for _, pfOff := range []bool{false, true} {
				for _, name := range []string{"store", "store2", "store3", "store_mem", "store2_mem", "store3_mem", "copy", "copy_mem"} {
					k, _ := KernelByName(name)
					got, err := RunKernel(KernelOptions{Machine: spec, Kernel: name, Cores: cores, ElemsPerStream: elems, PFOff: pfOff, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					var want Result
					if k.ReadStreams == 0 {
						want, err = RunStore(StoreOptions{Machine: spec, Streams: k.WriteStreams, NT: k.NT, Cores: cores, BytesPerStream: elems * 8, PFOff: pfOff, Seed: seed})
					} else {
						want, err = RunCopy(CopyOptions{Machine: spec, Cores: cores, Elems: elems, NT: k.NT, PFOff: pfOff, Seed: seed})
					}
					if err != nil {
						t.Fatal(err)
					}
					if got.V != want.V {
						t.Errorf("%s on %s, %d cores, pfoff=%v: RunKernel %+v, dedicated run %+v", name, spec.Name, cores, pfOff, got.V, want.V)
					}
				}
			}
		}
	}
}

func TestRunKernelNTStore(t *testing.T) {
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "store_mem", Cores: 1, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kr.Ratio()-1.0) > 0.02 {
		t.Errorf("NT serial ratio %.3f, want 1.0", kr.Ratio())
	}
	if kr.V.NT == 0 {
		t.Error("NT volume not recorded")
	}
}

func TestRunKernelUpdateNoWA(t *testing.T) {
	// "update" reads its write target: write-allocates are free, so the
	// traffic is the stream read once and written once.
	const elems = 1 << 17
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "update", Cores: 1, ElemsPerStream: elems})
	if err != nil {
		t.Fatal(err)
	}
	explicit := float64(elems) * 8 // the one stream's bytes
	if r := kr.V.Read / explicit; math.Abs(r-1.0) > 0.02 {
		t.Errorf("update excess read ratio %.3f, want 1.0 (one pass, no WA)", r)
	}
	if math.Abs(kr.V.Write/explicit-1.0) > 0.02 {
		t.Errorf("update write traffic %.3f of explicit", kr.V.Write/explicit)
	}
}

func TestRunKernelTriad(t *testing.T) {
	// STREAM triad serial: reads b, c and write-allocates a: traffic
	// reads = 3x stream volume, writes = 1x.
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "stream", Cores: 1, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	perStream := float64(1<<17) * 8
	if math.Abs(kr.V.Read/perStream-3.0) > 0.05 {
		t.Errorf("triad reads %.2f streams, want 3 (b, c, WA of a)", kr.V.Read/perStream)
	}
	if kr.Flops() != 2*float64(1<<17) {
		t.Errorf("triad flops %g", kr.Flops())
	}
}

func TestRunKernelSumReadOnly(t *testing.T) {
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "sum", Cores: 2, ElemsPerStream: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if kr.V.Write != 0 {
		t.Errorf("read-only kernel wrote %.0f bytes", kr.V.Write)
	}
	if kr.Ratio() != 0 {
		t.Error("store ratio should be undefined (0) for read-only kernels")
	}
}

func TestRunKernelErrors(t *testing.T) {
	if _, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "nope", Cores: 1}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := RunKernel(KernelOptions{Kernel: "copy", Cores: 1}); err == nil {
		t.Error("nil machine accepted")
	}
}

// TestStreamPastSimulatedRangeIsAnError: a stream past memsim's 2^38-line
// bound panics in every core group's replay. The run returns the lowest
// group's panic as an error naming its first core, at once, instead of
// killing the process hosting it. The copy's source, laid out first and
// loaded whole, spans 2^39 lines, so its first load is out of range.
func TestStreamPastSimulatedRangeIsAnError(t *testing.T) {
	icx := machine.ICX8360Y()
	_, copyErr := RunCopy(CopyOptions{Machine: icx, Cores: 1, Elems: 1 << 42})
	_, kernelErr := RunKernel(KernelOptions{Machine: icx, Kernel: "copy", Cores: 23, ElemsPerStream: 1 << 42})
	for i, err := range []error{copyErr, kernelErr} {
		if err == nil || !strings.Contains(err.Error(), "core group at core 0 panicked") || !strings.Contains(err.Error(), "outside the simulated range") {
			t.Errorf("%s error %v, want core 0's range panic", []string{"RunCopy", "RunKernel"}[i], err)
		}
	}
}
