// Package bench implements the paper's microbenchmarks: the 1-3-stream
// store kernels with and without non-temporal hints (likwid-bench
// store_avx512 / store_mem_avx512 and the 2/3-stream variants, Figs. 5,
// 9, 10), the array-copy kernel (Fig. 6), and the strided halo-copy
// kernel (Figs. 8 and 11).
//
// Each active core is simulated with its own store engine and a
// hierarchy borrowed from memsim's pool for the run; cores sharing the
// same bandwidth pressure are simulated once and weighted (compact
// pinning fills ccNUMA domains in order).
package bench

import (
	"fmt"
	"sync"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// coreGroup is a set of cores with identical simulation conditions.
type coreGroup struct {
	pressure  float64
	count     int
	firstCore int
}

// groupCores buckets the first n cores by ccNUMA-domain pressure.
func groupCores(spec *machine.Spec, n int) []coreGroup {
	m := map[int64]*coreGroup{}
	var order []int64
	for c := 0; c < n; c++ {
		p := spec.PressureAt(c, n)
		key := int64(p * 1e9)
		g, ok := m[key]
		if !ok {
			m[key] = &coreGroup{pressure: p, count: 1, firstCore: c}
			order = append(order, key)
			continue
		}
		g.count++
	}
	out := make([]coreGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *m[k])
	}
	return out
}

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
//
//lint:allow ctxflow bounded single-scenario kernel; campaign cancellation is scenario-granular at the sweep engine
func RunStore(o StoreOptions) (StoreResult, error) {
	if err := checkCores(o.Machine, o.Cores); err != nil {
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
	spec := o.Machine

	var res StoreResult
	res.Cores = o.Cores
	res.Stored = float64(o.Cores) * float64(o.Streams) * float64(o.BytesPerStream)

	groups := groupCores(spec, o.Cores)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g coreGroup) {
			defer wg.Done()
			h := memsim.Borrow(spec)
			defer memsim.Return(h)
			h.SetPrefetch(!o.PFOff)
			e := core.NewStoreEngine(h, spec)
			e.Seed(o.Seed ^ uint64(g.firstCore+1)*0x9e3779b97f4a7c15)
			nt := make([]bool, o.Streams)
			for i := range nt {
				nt[i] = o.NT
			}
			e.ConfigureStreams(o.Streams, nt)
			e.SetContext(core.Context{
				Pressure:      g.pressure,
				NodeFraction:  float64(o.Cores) / float64(spec.Cores()),
				ActiveSockets: spec.ActiveSockets(o.Cores),
				Class:         machine.ClassPureStore,
				StoreStreams:  o.Streams,
				Eligible:      true,
				PFOn:          !o.PFOff,
			})
			// Independent aligned streams with a generous gap.
			gap := (o.BytesPerStream + (1 << 20)) &^ 63
			for s := 0; s < o.Streams; s++ {
				base := int64(1<<24) + int64(s)*gap
				e.StoreRange(s, base, o.BytesPerStream)
			}
			e.CloseAll()
			h.Flush()
			mu.Lock()
			res.V.Add(volumesOf(h.Counts()), float64(g.count))
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return res, nil
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
//
//lint:allow ctxflow bounded single-scenario kernel; campaign cancellation is scenario-granular at the sweep engine
func RunCopy(o CopyOptions) (CopyResult, error) {
	if err := checkCores(o.Machine, o.Cores); err != nil {
		return CopyResult{}, err
	}
	if o.Elems == 0 {
		o.Elems = 1 << 20
	}
	if o.Seed == 0 {
		o.Seed = 0xC0B1
	}
	spec := o.Machine
	inner := o.Inner
	if inner <= 0 {
		inner = int(o.Elems)
	}

	var res CopyResult
	res.Cores = o.Cores
	res.Iters = float64(o.Cores) * float64(o.Elems)

	groups := groupCores(spec, o.Cores)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g coreGroup) {
			defer wg.Done()
			h := memsim.Borrow(spec)
			defer memsim.Return(h)
			h.SetPrefetch(!o.PFOff)
			e := core.NewStoreEngine(h, spec)
			e.Seed(o.Seed ^ uint64(g.firstCore+1)*0x9e3779b97f4a7c15)
			e.ConfigureStreams(1, []bool{o.NT})
			e.SetContext(core.Context{
				Pressure:      g.pressure,
				NodeFraction:  float64(o.Cores) / float64(spec.Cores()),
				ActiveSockets: spec.ActiveSockets(o.Cores),
				Class:         machine.ClassCopy,
				StoreStreams:  1,
				Eligible:      true,
				PFOn:          !o.PFOff,
			})

			period := int64(inner + o.Halo)
			aBase := int64(1 << 24)
			bBase := aBase + (o.Elems*8*2+(1<<20))&^63

			copied := int64(0)
			pos := int64(0)
			for copied < o.Elems {
				n := int64(inner)
				if o.Elems-copied < n {
					n = o.Elems - copied
				}
				aAddr := aBase + pos*8
				bAddr := bBase + pos*8
				lo := bAddr >> 6
				h.AccessRange(lo, (bAddr+n*8-1)>>6-lo+1, memsim.AccessLoad)
				e.StoreRange(0, aAddr, n*8)
				copied += n
				pos += period
			}
			e.CloseAll()
			h.Flush()
			mu.Lock()
			res.V.Add(volumesOf(h.Counts()), float64(g.count))
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return res, nil
}

func checkCores(spec *machine.Spec, cores int) error {
	if spec == nil {
		return fmt.Errorf("bench: nil machine spec")
	}
	if cores < 1 || cores > spec.Cores() {
		return fmt.Errorf("bench: core count %d outside 1..%d", cores, spec.Cores())
	}
	return nil
}
