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

func TestRunKernelStoreMatchesRunStore(t *testing.T) {
	// The registry "store" kernel and the dedicated RunStore harness must
	// agree on the serial ratio.
	icx := machine.ICX8360Y()
	kr, err := RunKernel(KernelOptions{Machine: icx, Kernel: "store", Cores: 1, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kr.StoreRatio()-2.0) > 0.02 {
		t.Errorf("registry store serial ratio %.3f, want 2.0", kr.StoreRatio())
	}
	kr72, err := RunKernel(KernelOptions{Machine: icx, Kernel: "store", Cores: 72, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if kr72.StoreRatio() < 1.15 || kr72.StoreRatio() > 1.3 {
		t.Errorf("registry store node ratio %.3f, want ~1.22", kr72.StoreRatio())
	}
}

func TestRunKernelNTStore(t *testing.T) {
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "store_mem", Cores: 1, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kr.StoreRatio()-1.0) > 0.02 {
		t.Errorf("NT serial ratio %.3f, want 1.0", kr.StoreRatio())
	}
	if kr.V.NT == 0 {
		t.Error("NT volume not recorded")
	}
}

func TestRunKernelUpdateNoWA(t *testing.T) {
	// "update" reads its write target: write-allocates are free, so the
	// total traffic equals read + write volume exactly (ratio of reads to
	// the explicit read volume ~1).
	kr, err := RunKernel(KernelOptions{Machine: machine.ICX8360Y(), Kernel: "update", Cores: 1, ElemsPerStream: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if r := kr.V.Read / kr.ReadVolume; math.Abs(r-1.0) > 0.02 {
		t.Errorf("update excess read ratio %.3f, want 1.0 (one pass, no WA)", r)
	}
	if math.Abs(kr.V.Write/kr.WriteVolume-1.0) > 0.02 {
		t.Errorf("update write traffic %.3f of explicit", kr.V.Write/kr.WriteVolume)
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
	if kr.Flops != 2*float64(1<<17) {
		t.Errorf("triad flops %g", kr.Flops)
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
	if kr.StoreRatio() != 0 {
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
// killing the process hosting it.
func TestStreamPastSimulatedRangeIsAnError(t *testing.T) {
	icx := machine.ICX8360Y()
	_, copyErr := RunCopy(CopyOptions{Machine: icx, Cores: 1, Elems: 1 << 40})
	_, kernelErr := RunKernel(KernelOptions{Machine: icx, Kernel: "copy", Cores: 23, ElemsPerStream: 1 << 42})
	for i, err := range []error{copyErr, kernelErr} {
		if err == nil || !strings.Contains(err.Error(), "core group at core 0 panicked") || !strings.Contains(err.Error(), "outside the simulated range") {
			t.Errorf("%s error %v, want core 0's range panic", []string{"RunCopy", "RunKernel"}[i], err)
		}
	}
}
