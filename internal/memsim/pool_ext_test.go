package memsim_test

import (
	"runtime"
	"sync"
	"testing"

	"cloversim/internal/bench"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
	"cloversim/internal/trace"
)

// TestPoolBoundsConcurrentSimulations: more concurrent loop replays and
// microbenchmark core groups than GOMAXPROCS, on two machines, never
// make more than GOMAXPROCS hierarchies exist, and each computes what
// it computes alone.
func TestPoolBoundsConcurrentSimulations(t *testing.T) {
	icx, spr := machine.ICX8360Y(), machine.SPR8480()
	ar := trace.NewArena(true)
	a := ar.Alloc("a", 0, 1023, -1, 9)
	c := ar.Alloc("c", 0, 1023, -1, 9)
	loop := &trace.Loop{Name: "stencil", Reads: []trace.Access{{A: a, DK: -1}, {A: a, DJ: 1}, {A: a, DK: 1}},
		Writes: []trace.Write{{A: c}}, Eligible: true}
	bounds := trace.Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 7}
	replay := func(i int) memsim.Counts {
		spec := []*machine.Spec{icx, spr}[i%2]
		x := trace.NewExecutor(spec, nil) // a memo of its own: every replay misses
		x.Env = trace.Env{Pressure: 0.8, NodeFraction: 0.5, ActiveSockets: 1, PFOn: i%3 != 0}
		x.Seed(uint64(i + 1))
		return x.Run(loop, bounds)
	}
	store := func(spec *machine.Spec) bench.StoreResult {
		r, err := bench.RunStore(bench.StoreOptions{Machine: spec, Streams: 2, Cores: spec.Cores() - 3, BytesPerStream: 1 << 16})
		if err != nil {
			t.Error(err)
		}
		return r
	}
	copies := func(spec *machine.Spec) bench.CopyResult {
		r, err := bench.RunCopy(bench.CopyOptions{Machine: spec, Cores: spec.Cores() - 5, Inner: 200, Halo: 8, Elems: 1 << 13})
		if err != nil {
			t.Error(err)
		}
		return r
	}

	limit := runtime.GOMAXPROCS(0)
	n := 2*limit + 1
	wantReplay := make([]memsim.Counts, n)
	for i := range wantReplay {
		wantReplay[i] = replay(i)
	}
	wantStore, wantCopy := store(spr), copies(icx)

	memsim.PoolPeak()
	gotReplay := make([]memsim.Counts, n)
	var gotStore bench.StoreResult
	var gotCopy bench.CopyResult
	var wg sync.WaitGroup
	for i := range gotReplay {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotReplay[i] = replay(i)
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotStore = store(spr)
	}()
	go func() {
		defer wg.Done()
		gotCopy = copies(icx)
	}()
	wg.Wait()

	if peak := memsim.PoolPeak(); peak > limit {
		t.Errorf("%d hierarchies existed at once at GOMAXPROCS %d", peak, limit)
	}
	for i := range gotReplay {
		if gotReplay[i] != wantReplay[i] {
			t.Errorf("replay %d: %+v concurrently, %+v alone", i, gotReplay[i], wantReplay[i])
		}
	}
	if gotStore != wantStore || gotCopy != wantCopy {
		t.Errorf("microbenchmarks: store %+v copy %+v concurrently, %+v %+v alone", gotStore, gotCopy, wantStore, wantCopy)
	}
}
