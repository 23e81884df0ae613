package memsim

import (
	"runtime"
	"slices"
	"sync"
	"weak"

	"cloversim/internal/machine"
)

// pool lends the hierarchies simulations run on. A loop replay or a
// microbenchmark core group needs one only while it simulates, so the
// process keeps at most runtime.GOMAXPROCS(0) of them in existence:
// simulation memory grows with the cores that can run simulations, not
// with the goroutines that want to. The pool holds a returned hierarchy
// only weakly, so a garbage collection may take it back: a process
// between campaigns holds no hierarchy at all.
type pool struct {
	mu       sync.Mutex
	returned sync.Cond                 // broadcast on every return and freed slot
	free     []weak.Pointer[Hierarchy] // returned hierarchies, pristine, oldest first
	live     int                       // hierarchies built and not yet collected
	peak     int                       // the most live at once (tests read it)
	waiting  int                       // Borrows waiting for a slot (tests read it)
}

var hierarchies = newPool()

func newPool() *pool {
	p := &pool{}
	p.returned.L = &p.mu
	return p
}

// Borrow lends a pristine hierarchy for spec, in the state New(spec)
// returns: a free hierarchy of spec's geometry, else a free one of
// another geometry resized for spec, else a new one while fewer than
// GOMAXPROCS exist. Otherwise Borrow waits for a Return, or for the GC
// to collect a free hierarchy. The bound blocks rather than allocating
// past it, because a burst of short-lived extra hierarchies (a cell's
// rank groups and core groups all starting at once) is what costs
// resident memory. Waiting cannot deadlock as long as a borrower waits
// on nothing else while it holds a hierarchy: it simulates, then gives
// the hierarchy back with Return, also when the simulation panics.
func Borrow(spec *machine.Spec) *Hierarchy {
	p := hierarchies
	p.mu.Lock()
	for {
		if h := p.take(spec); h != nil {
			p.mu.Unlock()
			h.fit(spec)
			return h
		}
		if p.live < runtime.GOMAXPROCS(0) {
			p.live++
			p.peak = max(p.peak, p.live)
			p.mu.Unlock()
			return p.build(spec)
		}
		p.waiting++
		p.returned.Wait()
		p.waiting--
	}
}

// take removes a free hierarchy from the pool and returns it: the most
// recently returned one of spec's geometry, else the most recently
// returned one, else nil. It forgets the hierarchies the GC collected.
// Callers hold p.mu.
func (p *pool) take(spec *machine.Spec) *Hierarchy {
	var got *Hierarchy
	at := -1
	for i := len(p.free) - 1; i >= 0 && (got == nil || !got.fits(spec)); i-- {
		if h := p.free[i].Value(); h != nil && (got == nil || h.fits(spec)) {
			got, at = h, i
		}
	}
	if got != nil {
		p.free = slices.Delete(p.free, at, at+1)
	}
	p.free = slices.DeleteFunc(p.free, func(w weak.Pointer[Hierarchy]) bool {
		return w.Value() == nil // collected: its cleanup frees the slot
	})
	return got
}

// build makes a hierarchy for the pool, which learns from a cleanup when
// the GC has collected it. If spec is one memsim cannot simulate, the
// panic gives the slot up.
func (p *pool) build(spec *machine.Spec) (h *Hierarchy) {
	defer func() {
		if h == nil {
			p.release()
		}
	}()
	h = New(spec)
	runtime.AddCleanup(h, (*pool).release, p)
	return h
}

// release gives up the slot of a hierarchy that no longer exists.
func (p *pool) release() {
	p.mu.Lock()
	p.live--
	p.returned.Broadcast()
	p.mu.Unlock()
}

// Return gives a borrowed hierarchy back. Whatever the borrower left in
// it is discarded uncounted (Flush first to count write-backs), so a
// simulation that panicked may return its hierarchy in any state: defer
// the call. The hierarchy must not be used afterwards.
func Return(h *Hierarchy) {
	if !h.pristine() {
		h.Invalidate()
	}
	p := hierarchies
	p.mu.Lock()
	p.free = append(p.free, weak.Make(h))
	p.returned.Broadcast()
	p.mu.Unlock()
}
