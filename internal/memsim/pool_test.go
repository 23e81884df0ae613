package memsim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cloversim/internal/machine"
)

// TestShapeOfMatchesNew: the shape derived from a spec, which costs no
// allocation, is the shape of the hierarchy New builds for it, on every
// preset with the prefetcher on and off.
func TestShapeOfMatchesNew(t *testing.T) {
	for _, spec := range machine.AllPresets() {
		for _, pf := range []bool{true, false} {
			h := New(spec)
			h.SetPrefetch(pf)
			if got, want := ShapeOf(spec, pf), h.Shape(); got != want {
				t.Errorf("%s pf=%t: ShapeOf %+v, New %+v", spec.Name, pf, got, want)
			}
			if a := testing.AllocsPerRun(10, func() { ShapeOf(spec, pf) }); a != 0 {
				t.Errorf("%s pf=%t: ShapeOf allocates %v times", spec.Name, pf, a)
			}
		}
	}
}

// sameAsNew reports how a borrowed hierarchy differs from the one
// New(spec) builds: in shape, counters or cache state when lent, or in
// what a random trace then does to each. It leaves h dirty.
func sameAsNew(h *Hierarchy, spec *machine.Spec, seed uint64) string {
	fresh := New(spec)
	if h.Shape() != fresh.Shape() || h.Counts() != (Counts{}) || !h.pristine() {
		return fmt.Sprintf("lent with shape %+v, counts %+v, pristine %t; New gives %+v", h.Shape(), h.Counts(), h.pristine(), fresh.Shape())
	}
	if d := diffState(hierarchyState(h), hierarchyState(fresh)); d != "" {
		return "lent with cache state: " + d
	}
	for _, p := range randomTrace(spec, seed, 20) {
		step(h, p, byRange)
		step(fresh, p, byRange)
	}
	if h.Counts() != fresh.Counts() {
		return fmt.Sprintf("a trace counted %+v, on a new hierarchy %+v", h.Counts(), fresh.Counts())
	}
	if d := diffState(hierarchyState(h), hierarchyState(fresh)); d != "" {
		return "a trace left state: " + d
	}
	return ""
}

// TestBorrowAcrossPresets: more goroutines than the pool's bound, each
// borrowing hierarchies of every preset in its own order, are always
// lent one in the state New builds for the preset asked for (geometry,
// prefetch defaults, zero counters, slot cursor 0, empty caches), which
// then replays a trace exactly as a new one does, whatever preset it
// served before and however its last borrower left it. No more than
// GOMAXPROCS hierarchies exist at once.
func TestBorrowAcrossPresets(t *testing.T) {
	specs := machine.AllPresets()
	limit := runtime.GOMAXPROCS(0)
	PoolPeak()
	var wg sync.WaitGroup
	for g := range limit + 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range specs {
				spec := specs[(g+i*(2*g+1))%len(specs)]
				h := Borrow(spec)
				if d := sameAsNew(h, spec, uint64(g*len(specs)+i)); d != "" {
					t.Errorf("goroutine %d, %s: %s", g, spec.Name, d)
				}
				if i%2 == 0 {
					h.Flush()
				}
				Return(h)
			}
		}()
	}
	wg.Wait()
	if peak := PoolPeak(); peak > limit {
		t.Errorf("%d hierarchies existed at once at GOMAXPROCS %d", peak, limit)
	}
}

// TestReturnAfterPanicWakesWaiters: with every hierarchy the pool may
// lend held, a Borrow waits. A simulation that panics and gives its
// hierarchy back from a deferred Return wakes it, and the waiter is lent
// a pristine hierarchy. A spec memsim cannot simulate panics in Borrow
// without using up a slot for good.
func TestReturnAfterPanicWakesWaiters(t *testing.T) {
	spec := machine.ICX8360Y()
	held := make([]*Hierarchy, runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = Borrow(spec)
	}
	lent := make(chan *Hierarchy, 1)
	go func() { lent <- Borrow(spec) }()
	waitUntil(t, func() bool {
		hierarchies.mu.Lock()
		defer hierarchies.mu.Unlock()
		return hierarchies.waiting == 1
	})

	func() {
		defer func() {
			if recover() == nil {
				t.Error("an access past the simulated range did not panic")
			}
		}()
		h := held[0]
		defer Return(h)
		h.SetPrefetchCursor(5)
		h.AccessRange(1000, 300, AccessRFO)
		h.AccessRange(h.lineLimit, 1, AccessLoad)
	}()
	select {
	case h := <-lent:
		if d := sameAsNew(h, spec, 1); d != "" {
			t.Errorf("after the panic: %s", d)
		}
		held[0] = h
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting Borrow did not wake")
	}
	for _, h := range held {
		Return(h)
	}
	clear(held)

	wide := machine.ICX8360Y()
	wide.L1 = machine.CacheGeom{SizeBytes: 64 * 33 * 64, Ways: 33}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("borrowing a 33-way hierarchy did not panic")
			}
		}()
		Return(Borrow(wide))
	}()
	runtime.GC() // a free hierarchy the failed Borrow took is now garbage
	all := make(chan bool)
	go func() {
		for i := range held {
			held[i] = Borrow(spec)
		}
		all <- true
	}()
	select {
	case <-all:
		for _, h := range held {
			Return(h)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the failed Borrow used up a slot")
	}
}

// TestGCTakesBackFreeHierarchies: the pool holds returned hierarchies
// only weakly, so once every hierarchy is back a garbage collection
// leaves none in existence, and the next Borrow builds one.
func TestGCTakesBackFreeHierarchies(t *testing.T) {
	spec := machine.A64FX()
	held := make([]*Hierarchy, runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = Borrow(spec)
	}
	for _, h := range held {
		Return(h)
	}
	clear(held)
	waitUntil(t, func() bool {
		runtime.GC()
		hierarchies.mu.Lock()
		defer hierarchies.mu.Unlock()
		return hierarchies.live == 0
	})
	h := Borrow(spec)
	if d := sameAsNew(h, spec, 2); d != "" {
		t.Error(d)
	}
	Return(h)
}

// waitUntil polls cond, yielding, and fails the test after 10 s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
		runtime.Gosched()
	}
}
