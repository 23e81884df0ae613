package bench

import (
	"fmt"
	"sort"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/trace"
)

// Kernel is a named likwid-bench-style microbenchmark kernel. The paper's
// artifact uses store_avx512, store_mem_avx512 (NT), the 2/3-stream
// variants, and copy_avx; the classic STREAM kernels are included so the
// library covers the usual bandwidth-characterization suite.
type Kernel struct {
	Name string
	// ReadStreams and WriteStreams per iteration chunk.
	ReadStreams  int
	WriteStreams int
	// NT marks non-temporal write streams.
	NT bool
	// Update marks kernels whose write stream is also read (no WA).
	Update bool
	// FlopsPerElem for MEM_DP-style accounting.
	FlopsPerElem int
}

// kernelTable mirrors likwid-bench's kernel registry.
var kernelTable = []Kernel{
	{"store", 0, 1, false, false, 0},
	{"store2", 0, 2, false, false, 0},
	{"store3", 0, 3, false, false, 0},
	{"store_mem", 0, 1, true, false, 0},
	{"store2_mem", 0, 2, true, false, 0},
	{"store3_mem", 0, 3, true, false, 0},
	{"copy", 1, 1, false, false, 0},
	{"copy_mem", 1, 1, true, false, 0},
	{"stream", 2, 1, false, false, 2},
	{"stream_mem", 2, 1, true, false, 2},
	{"update", 0, 1, false, true, 1},
	{"daxpy", 2, 1, false, true, 2},
	{"sum", 1, 0, false, false, 1},
}

// KernelByName resolves a kernel name.
func KernelByName(name string) (Kernel, bool) {
	for _, k := range kernelTable {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// KernelNames lists the registry in sorted order.
func KernelNames() []string {
	out := make([]string, len(kernelTable))
	for i, k := range kernelTable {
		out[i] = k.Name
	}
	sort.Strings(out)
	return out
}

// Class derives the calibration class of the kernel.
func (k Kernel) Class() machine.KernelClass {
	switch {
	case k.ReadStreams == 0:
		return machine.ClassPureStore
	case k.ReadStreams+k.WriteStreams <= 2:
		return machine.ClassCopy
	default:
		return machine.ClassStencil
	}
}

// KernelOptions configures a registry-kernel run.
type KernelOptions struct {
	Machine *machine.Spec
	Kernel  string
	Cores   int
	// ElemsPerStream per core (default 256 Ki).
	ElemsPerStream int64
	PFOff          bool
	Seed           uint64
}

// KernelResult reports a registry-kernel run.
type KernelResult struct {
	Kernel Kernel
	Cores  int
	// Explicit per-stream volumes.
	ReadVolume, WriteVolume float64
	V                       Volumes
	Flops                   float64
}

// StoreRatio returns actual traffic over explicit store volume (only
// meaningful for kernels with write streams).
func (r KernelResult) StoreRatio() float64 {
	if r.WriteVolume == 0 {
		return 0
	}
	return (r.V.Read + r.V.Write) / r.WriteVolume
}

// RunKernel executes a registry kernel across cores (compact pinning).
func RunKernel(o KernelOptions) (KernelResult, error) {
	k, ok := KernelByName(o.Kernel)
	if !ok {
		return KernelResult{}, fmt.Errorf("bench: unknown kernel %q (have %v)", o.Kernel, KernelNames())
	}
	if err := checkOptions(o.Machine, o.Cores, o.ElemsPerStream); err != nil {
		return KernelResult{}, err
	}
	if o.ElemsPerStream == 0 {
		o.ElemsPerStream = 256 << 10
	}
	if o.Seed == 0 {
		o.Seed = 0xbe7c4
	}

	res := KernelResult{Kernel: k, Cores: o.Cores}
	bytesPerStream := float64(o.ElemsPerStream) * 8 * float64(o.Cores)
	res.ReadVolume = bytesPerStream * float64(k.ReadStreams)
	res.WriteVolume = bytesPerStream * float64(k.WriteStreams)
	if k.Update {
		// The write stream is also a read stream.
		res.ReadVolume += bytesPerStream * float64(k.WriteStreams)
	}
	res.Flops = float64(k.FlopsPerElem) * float64(o.ElemsPerStream) * float64(o.Cores)

	r := run{node: trace.Node{Spec: o.Machine, Active: o.Cores, PFOn: !o.PFOff, Seed: o.Seed}, class: k.Class(), nt: nStreams(k.WriteStreams, k.NT)}
	gap := (o.ElemsPerStream*8 + (1 << 20)) &^ 63
	// Stream base addresses: reads first, then writes.
	readBase := make([]int64, k.ReadStreams)
	for i := range readBase {
		readBase[i] = int64(1<<24) + int64(i)*gap
	}
	writeBase := make([]int64, k.WriteStreams)
	for i := range writeBase {
		writeBase[i] = int64(1<<24) + int64(k.ReadStreams+i)*gap
	}
	v, err := r.replay(func(e *core.StoreEngine, be core.Backend) {
		// Process in chunks to interleave streams like a real kernel.
		const chunk = 512 // elements
		for pos := int64(0); pos < o.ElemsPerStream; pos += chunk {
			bytes := min(chunk, o.ElemsPerStream-pos) * 8
			for _, base := range readBase {
				addr := base + pos*8
				lo := addr >> 6
				be.AccessRange(lo, (addr+bytes-1)>>6-lo+1, memsim.AccessLoad)
			}
			for i, base := range writeBase {
				addr := base + pos*8
				if k.Update {
					for line := addr >> 6; line <= (addr+bytes-1)>>6; line++ {
						be.AccessRange(line, 1, memsim.AccessLoad)
						be.AccessRange(line, 1, memsim.AccessRFO)
					}
					continue
				}
				e.StoreRange(i, addr, bytes)
			}
		}
	})
	if err != nil {
		return KernelResult{}, err
	}
	res.V = v
	return res, nil
}
