// Package bench implements the paper's microbenchmarks: the 1-3-stream
// store kernels with and without non-temporal hints (likwid-bench
// store_avx512 / store_mem_avx512 and the 2/3-stream variants, Figs. 5,
// 9, 10), the array-copy kernel (Fig. 6), the strided halo-copy kernel
// (Figs. 8 and 11), and the likwid-bench kernel table cmd/perfctr runs.
//
// Every microbenchmark is a Kernel, its read and write streams, that
// one loop body replays: it works each stream a chunk at a time,
// loading every read stream's chunk and then storing every write
// stream's, and skips a halo after each chunk. RunStore stores each
// stream whole, RunCopy copies in Inner-element chunks and RunKernel
// in 512-element chunks. The run's trace.Node, without a memo, groups
// the active cores by the pressure of their ccNUMA domain (compact
// pinning fills domains in order); each group's first core replays the
// body once, borrowing a hierarchy from memsim's pool, and its volumes
// are weighted by the group's cores. A group whose replay panics fails
// the run with an error.
package bench

import (
	"cmp"
	"fmt"
	"sort"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/trace"
)

// Volumes aggregates measured memory volumes in bytes.
type Volumes struct {
	Read  float64
	Write float64
	ItoM  float64
	NT    float64
}

// Add accumulates o scaled by w.
func (v *Volumes) Add(o Volumes, w float64) {
	v.Read += w * o.Read
	v.Write += w * o.Write
	v.ItoM += w * o.ItoM
	v.NT += w * o.NT
}

func volumesOf(c memsim.Counts) Volumes {
	return Volumes{
		Read:  float64(c.ReadBytes()),
		Write: float64(c.WriteBytes()),
		ItoM:  float64(c.ItoMLines * machine.LineBytes),
		NT:    float64(c.NTLines * machine.LineBytes),
	}
}

// Kernel is a likwid-bench-style microbenchmark kernel. The paper's
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

// Result is the outcome of a microbenchmark run.
type Result struct {
	// Kernel is the kernel run; RunStore's and RunCopy's are unnamed.
	Kernel Kernel
	// Iters is the elements worked per stream, summed over the cores.
	Iters float64
	V     Volumes
}

// Ratio returns actual memory traffic over the explicitly stored volume
// (the y axis of Figs. 5, 9, 10): 1.0 = all write-allocates evaded,
// 2.0 = every store pays a read-for-ownership. It is 0 for a kernel
// without write streams.
func (r Result) Ratio() float64 {
	stored := r.Iters * 8 * float64(r.Kernel.WriteStreams)
	if stored == 0 {
		return 0
	}
	return (r.V.Read + r.V.Write) / stored
}

// ReadPerIt returns read bytes per element (Fig. 6 y axis).
func (r Result) ReadPerIt() float64 { return r.V.Read / r.Iters }

// WritePerIt returns write bytes per element.
func (r Result) WritePerIt() float64 { return r.V.Write / r.Iters }

// ItoMPerIt returns SpecI2M volume per element.
func (r Result) ItoMPerIt() float64 { return r.V.ItoM / r.Iters }

// RWRatio returns the read/write volume ratio (Figs. 8 and 11 y axis).
func (r Result) RWRatio() float64 {
	if r.V.Write == 0 {
		return 0
	}
	return r.V.Read / r.V.Write
}

// Flops returns the kernel's double-precision flops over the run.
func (r Result) Flops() float64 { return float64(r.Kernel.FlopsPerElem) * r.Iters }

// StoreOptions configures the store-ratio benchmark.
type StoreOptions struct {
	Machine *machine.Spec
	// Streams is the number of independent store streams (1-3).
	Streams int
	// NT selects non-temporal stores.
	NT bool
	// Cores is the number of active cores (compact pinning).
	Cores int
	// BytesPerStream is the volume stored per core per stream, a
	// multiple of the 8-byte element. Default 8 MiB (the 10 GB of the
	// paper is traffic-equivalent).
	BytesPerStream int64
	// PFOff disables hardware prefetchers.
	PFOff bool
	Seed  uint64
}

// RunStore executes the store microbenchmark: each core stores each of
// its streams whole, one stream after the other.
func RunStore(o StoreOptions) (Result, error) {
	if o.BytesPerStream%8 != 0 {
		return Result{}, fmt.Errorf("bench: store size %d bytes is not a whole number of 8-byte elements", o.BytesPerStream)
	}
	elems := cmp.Or(o.BytesPerStream/8, 1<<20)
	return run{
		k:       Kernel{WriteStreams: max(o.Streams, 1), NT: o.NT},
		machine: o.Machine, cores: o.Cores, pfOff: o.PFOff, seed: cmp.Or(o.Seed, 0x57073),
		elems: elems, chunk: elems,
	}.replay()
}

// CopyOptions configures the copy / halo-copy benchmark (a(:) = b(:)).
type CopyOptions struct {
	Machine *machine.Spec
	Cores   int
	// Inner is the batch length in elements; Halo elements are skipped
	// between batches (Fig. 8: 216/530/1920 with halo 0-17). Inner 0
	// means one contiguous stream.
	Inner int
	Halo  int
	// Elems is the total number of elements copied per core.
	Elems int64
	// NT uses non-temporal stores for the destination.
	NT    bool
	PFOff bool
	Seed  uint64
}

// RunCopy executes the copy benchmark.
func RunCopy(o CopyOptions) (Result, error) {
	elems := cmp.Or(o.Elems, 1<<20)
	chunk := int64(o.Inner)
	if chunk <= 0 {
		chunk = elems
	}
	return run{
		k:       Kernel{ReadStreams: 1, WriteStreams: 1, NT: o.NT},
		machine: o.Machine, cores: o.Cores, pfOff: o.PFOff, seed: cmp.Or(o.Seed, 0xC0B1),
		elems: elems, chunk: chunk, halo: int64(o.Halo),
	}.replay()
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

// RunKernel executes a registry kernel across cores (compact pinning),
// 512 elements of each stream at a time, as a real kernel interleaves
// its streams.
func RunKernel(o KernelOptions) (Result, error) {
	k, ok := KernelByName(o.Kernel)
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown kernel %q (have %v)", o.Kernel, KernelNames())
	}
	return run{
		k:       k,
		machine: o.Machine, cores: o.Cores, pfOff: o.PFOff, seed: cmp.Or(o.Seed, 0xbe7c4),
		elems: cmp.Or(o.ElemsPerStream, 256<<10), chunk: 512,
	}.replay()
}

// run is one microbenchmark run: kernel k on the first cores cores of
// machine, every stream elems elements long per core, worked chunk
// elements at a time with halo elements skipped after each chunk.
type run struct {
	k       Kernel
	machine *machine.Spec
	cores   int
	pfOff   bool
	seed    uint64

	elems, chunk, halo int64
}

// replay checks the run, then replays the kernel loop on the run's
// node, one replay per core group, concurrently. It returns the
// groups' volumes weighted by their core counts, summed in group
// order; the first error is the lowest group's.
//
// Streams are laid out reads first: stream i starts at 16 MiB plus i
// gaps, a gap being the bytes of a stream's chunks and halos plus
// 1 MiB, rounded down to a line.
func (r run) replay() (Result, error) {
	switch {
	case r.machine == nil:
		return Result{}, fmt.Errorf("bench: nil machine spec")
	case r.cores < 1 || r.cores > r.machine.Cores():
		return Result{}, fmt.Errorf("bench: core count %d outside 1..%d", r.cores, r.machine.Cores())
	case r.elems < 0:
		return Result{}, fmt.Errorf("bench: stream size %d is negative", r.elems)
	}
	k := r.k
	nt := make([]bool, k.WriteStreams)
	for i := range nt {
		nt[i] = k.NT
	}
	chunks := (r.elems + r.chunk - 1) / r.chunk
	gap := ((r.elems+(chunks-1)*r.halo)*8 + 1<<20) &^ (machine.LineBytes - 1)
	base := func(stream int) int64 { return 1<<24 + int64(stream)*gap }
	body := func(e *core.StoreEngine, be core.Backend) {
		for done, pos := int64(0), int64(0); done < r.elems; pos += r.chunk + r.halo {
			n := min(r.chunk, r.elems-done)
			for i := range k.ReadStreams {
				addr := base(i) + pos*8
				lo := addr >> 6
				be.AccessRange(lo, (addr+n*8-1)>>6-lo+1, memsim.AccessLoad)
			}
			for i := range k.WriteStreams {
				addr := base(k.ReadStreams+i) + pos*8
				if !k.Update {
					e.StoreRange(i, addr, n*8)
					continue
				}
				for line := addr >> 6; line <= (addr+n*8-1)>>6; line++ {
					be.AccessRange(line, 1, memsim.AccessLoad)
					be.AccessRange(line, 1, memsim.AccessRFO)
				}
			}
			done += n
		}
	}

	// The microbenchmarks' one node: no memo, so no dry pass.
	node := trace.Node{Spec: r.machine, Active: r.cores, PFOn: !r.pfOff, Seed: r.seed}
	groups := node.Groups(nil)
	vols := make([]Volumes, len(groups))
	err := node.Each(groups, func(i int, x *trace.Executor) {
		vols[i] = volumesOf(x.Replay(func(e *core.StoreEngine, be core.Backend) {
			e.ConfigureStreams(len(nt), nt)
			e.SetContext(x.Context(k.Class(), len(nt), true))
			body(e, be)
		}))
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Kernel: k, Iters: float64(r.cores) * float64(r.elems)}
	for i, g := range groups {
		res.V.Add(vols[i], float64(g.Count))
	}
	return res, nil
}
