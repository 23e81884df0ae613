// Package bench implements the paper's microbenchmarks: the 1-3-stream
// store kernels with and without non-temporal hints (likwid-bench
// store_avx512 / store_mem_avx512 and the 2/3-stream variants, Figs. 5,
// 9, 10), the array-copy kernel (Fig. 6), and the strided halo-copy
// kernel (Figs. 8 and 11).
//
// Each microbenchmark is a body of store-engine and memsim operations
// that a simulated core replays. The run's trace.Node, without a memo,
// groups the active cores by the pressure of their ccNUMA domain
// (compact pinning fills domains in order); each group's first core
// replays the body once, borrowing a hierarchy from memsim's pool,
// and its volumes are weighted by the group's cores. A group whose
// replay panics fails the run with an error.
package bench

import (
	"fmt"

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

// run is what every core group of one microbenchmark run shares.
type run struct {
	node  trace.Node
	class machine.KernelClass
	nt    []bool // one per write stream: use non-temporal stores
}

// replay simulates the run's core groups concurrently and returns
// their volumes weighted by their core counts, summed in group order.
// body issues a group's operations once the engine holds the run's
// streams and the group's context. The first error is the lowest
// group's.
func (r run) replay(body func(e *core.StoreEngine, be core.Backend)) (Volumes, error) {
	groups := r.node.Groups(nil)
	vols := make([]Volumes, len(groups))
	err := r.node.Each(groups, func(i int, x *trace.Executor) {
		vols[i] = volumesOf(x.Replay(func(e *core.StoreEngine, be core.Backend) {
			e.ConfigureStreams(len(r.nt), r.nt)
			e.SetContext(x.Context(r.class, len(r.nt), true))
			body(e, be)
		}))
	})
	if err != nil {
		return Volumes{}, err
	}
	var v Volumes
	for i, g := range groups {
		v.Add(vols[i], float64(g.Count))
	}
	return v, nil
}

// nStreams returns n write streams that all use NT stores or none do.
func nStreams(n int, nt bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = nt
	}
	return s
}

func volumesOf(c memsim.Counts) Volumes {
	return Volumes{
		Read:  float64(c.ReadBytes()),
		Write: float64(c.WriteBytes()),
		ItoM:  float64(c.ItoMLines * 64),
		NT:    float64(c.NTLines * 64),
	}
}

// StoreOptions configures the store-ratio benchmark.
type StoreOptions struct {
	Machine *machine.Spec
	// Streams is the number of independent store streams (1-3).
	Streams int
	// NT selects non-temporal stores.
	NT bool
	// Cores is the number of active cores (compact pinning).
	Cores int
	// BytesPerStream is the volume stored per core per stream.
	// Default 8 MiB (the 10 GB of the paper is traffic-equivalent).
	BytesPerStream int64
	// PFOff disables hardware prefetchers.
	PFOff bool
	Seed  uint64
}

// StoreResult is the outcome of a store-ratio run.
type StoreResult struct {
	Cores  int
	Stored float64 // explicitly initiated store volume, bytes
	V      Volumes
}

// Ratio returns actual memory traffic over explicitly initiated traffic
// (the y axis of Figs. 5, 9, 10): 1.0 = all write-allocates evaded,
// 2.0 = every store pays a read-for-ownership.
func (r StoreResult) Ratio() float64 {
	if r.Stored == 0 {
		return 0
	}
	return (r.V.Read + r.V.Write) / r.Stored
}

// RunStore executes the store microbenchmark.
func RunStore(o StoreOptions) (StoreResult, error) {
	if err := checkOptions(o.Machine, o.Cores, o.BytesPerStream); err != nil {
		return StoreResult{}, err
	}
	if o.Streams < 1 {
		o.Streams = 1
	}
	if o.BytesPerStream == 0 {
		o.BytesPerStream = 8 << 20
	}
	if o.Seed == 0 {
		o.Seed = 0x57073
	}
	r := run{node: trace.Node{Spec: o.Machine, Active: o.Cores, PFOn: !o.PFOff, Seed: o.Seed}, class: machine.ClassPureStore, nt: nStreams(o.Streams, o.NT)}
	// Independent aligned streams with a generous gap.
	gap := (o.BytesPerStream + (1 << 20)) &^ 63
	v, err := r.replay(func(e *core.StoreEngine, _ core.Backend) {
		for s := 0; s < o.Streams; s++ {
			e.StoreRange(s, int64(1<<24)+int64(s)*gap, o.BytesPerStream)
		}
	})
	if err != nil {
		return StoreResult{}, err
	}
	return StoreResult{Cores: o.Cores, Stored: float64(o.Cores) * float64(o.Streams) * float64(o.BytesPerStream), V: v}, nil
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

// CopyResult is the outcome of a copy benchmark.
type CopyResult struct {
	Cores int
	Iters float64 // elements actually copied (node aggregate)
	V     Volumes
}

// ReadPerIt returns read bytes per copied element (Fig. 6 y axis).
func (r CopyResult) ReadPerIt() float64 { return r.V.Read / r.Iters }

// WritePerIt returns write bytes per copied element.
func (r CopyResult) WritePerIt() float64 { return r.V.Write / r.Iters }

// ItoMPerIt returns SpecI2M volume per copied element.
func (r CopyResult) ItoMPerIt() float64 { return r.V.ItoM / r.Iters }

// RWRatio returns the read/write volume ratio (Figs. 8 and 11 y axis).
func (r CopyResult) RWRatio() float64 {
	if r.V.Write == 0 {
		return 0
	}
	return r.V.Read / r.V.Write
}

// RunCopy executes the copy benchmark.
func RunCopy(o CopyOptions) (CopyResult, error) {
	if err := checkOptions(o.Machine, o.Cores, o.Elems); err != nil {
		return CopyResult{}, err
	}
	if o.Elems == 0 {
		o.Elems = 1 << 20
	}
	if o.Seed == 0 {
		o.Seed = 0xC0B1
	}
	inner := o.Inner
	if inner <= 0 {
		inner = int(o.Elems)
	}
	r := run{node: trace.Node{Spec: o.Machine, Active: o.Cores, PFOn: !o.PFOff, Seed: o.Seed}, class: machine.ClassCopy, nt: []bool{o.NT}}
	period := int64(inner + o.Halo)
	aBase := int64(1 << 24)
	bBase := aBase + (o.Elems*8*2+(1<<20))&^63
	v, err := r.replay(func(e *core.StoreEngine, be core.Backend) {
		pos := int64(0)
		for copied := int64(0); copied < o.Elems; {
			n := min(int64(inner), o.Elems-copied)
			bAddr := bBase + pos*8
			lo := bAddr >> 6
			be.AccessRange(lo, (bAddr+n*8-1)>>6-lo+1, memsim.AccessLoad)
			e.StoreRange(0, aBase+pos*8, n*8)
			copied += n
			pos += period
		}
	})
	if err != nil {
		return CopyResult{}, err
	}
	return CopyResult{Cores: o.Cores, Iters: float64(o.Cores) * float64(o.Elems), V: v}, nil
}

// checkOptions rejects a missing machine, a core count it does not
// have and a negative stream size (0 selects the default size).
func checkOptions(spec *machine.Spec, cores int, size int64) error {
	if spec == nil {
		return fmt.Errorf("bench: nil machine spec")
	}
	if cores < 1 || cores > spec.Cores() {
		return fmt.Errorf("bench: core count %d outside 1..%d", cores, spec.Cores())
	}
	if size < 0 {
		return fmt.Errorf("bench: stream size %d is negative", size)
	}
	return nil
}
