package trace

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// memoLoops is a small loop mix on one arena: an eligible copy (draws
// SpecI2M dice), an ineligible one (draws none), a stencil, an update
// stream and an NT-flagged copy.
func memoLoops() ([]*Loop, Bounds) {
	ar := NewArena(true)
	a := ar.Alloc("a", 0, 1024, -1, 17)
	b := ar.Alloc("b", 0, 1023, -1, 17)
	c := ar.Alloc("c", 0, 1023, -1, 17)
	return []*Loop{
		{Name: "copy", Reads: []Access{{A: a}}, Writes: []Write{{A: b}}, Eligible: true},
		{Name: "copy-ineligible", Reads: []Access{{A: a}}, Writes: []Write{{A: b}}},
		{Name: "stencil", Reads: []Access{{A: a, DK: -1}, {A: a, DJ: 1}, {A: a, DK: 1}}, Writes: []Write{{A: c}}, Eligible: true},
		{Name: "update", Reads: []Access{{A: c}}, Writes: []Write{{A: c, Update: true}}},
		{Name: "nt", Reads: []Access{{A: b}}, Writes: []Write{{A: a, NT: true}}, Eligible: true},
	}, Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 15}
}

// memoExec is an ICX core in a domain with 13 of 18 cores busy, under
// enough bandwidth pressure that eligible loops draw dice, sharing
// memo.
func memoExec(memo *Memo, seed uint64) *Executor {
	return Node{Spec: machine.ICX8360Y(), Active: 13, PFOn: true, NTStores: true, Seed: seed, Memo: memo}.Core(0)
}

// plain is the reference every Run must match: an executor that
// replays each loop straight into a hierarchy of its own, built by
// memsim.New outside the pool, bypassing the memo.
type plain struct {
	x *Executor
	h *memsim.Hierarchy
}

func newPlain(seed uint64) *plain {
	x := memoExec(nil, seed)
	h := memsim.New(x.spec)
	h.SetPrefetch(x.ctx.PFOn)
	return &plain{x: x, h: h}
}

// run replays the loop into the reference hierarchy and flushes it.
func (p *plain) run(l *Loop, b Bounds) memsim.Counts {
	before := p.h.Counts()
	p.x.drive(p.h, func(_ *core.StoreEngine, be core.Backend) { p.x.runLoop(l, b, be) })
	p.h.Flush()
	return p.h.Counts().Sub(before)
}

// sameState fails unless the executor ends in the reference's
// observable state: the shape its next loop starts from (prefetch
// cursor included), store statistics and engine PRNG. Each call's
// traffic delta is compared with the plain replay's by the caller.
func sameState(t *testing.T, what string, got *Executor, want *plain) {
	t.Helper()
	shape := memsim.ShapeOf(got.spec, got.ctx.PFOn)
	shape.PFCursor = got.cursor
	if shape != want.h.Shape() {
		t.Errorf("%s: executor %+v, want %+v", what, shape, want.h.Shape())
	}
	if got.e.Checkpoint() != want.x.e.Checkpoint() {
		t.Errorf("%s: engine %+v, want %+v", what, got.e.Stats(), want.x.e.Stats())
	}
}

// TestRunMatchesPlainReplay: every loop run through a memo, whether it
// misses (first executor) or hits (a second executor of the same seed),
// and every loop run on an executor without a memo, returns the delta
// the plain replay returns and leaves the executor in the same state. A
// different seed shares only the loops without dice.
func TestRunMatchesPlainReplay(t *testing.T) {
	loops, b := memoLoops()
	memo := NewMemo()
	for _, in := range []struct {
		memo *Memo
		seed uint64
	}{{memo, 7}, {memo, 7}, {memo, 8}, {nil, 7}} {
		seed := in.seed
		x, ref := memoExec(in.memo, seed), newPlain(seed)
		for round := 0; round < 2; round++ {
			for _, l := range loops {
				got, want := x.Run(l, b), ref.run(l, b)
				if got != want {
					t.Fatalf("memo %v seed %d round %d loop %s: Run %+v, plain replay %+v", in.memo != nil, seed, round, l.Name, got, want)
				}
				sameState(t, fmt.Sprintf("memo %v seed %d loop %s", in.memo != nil, seed, l.Name), x, ref)
			}
		}
	}
	st := memo.Stats()
	// Seed 7's second executor is served everything its first executor
	// simulated; the second round of each executor draws fresh dice.
	if st.Hits < int64(len(loops)) || st.Replays == 0 {
		t.Errorf("memo stats %+v: want at least %d hits and some replays", st, len(loops))
	}
}

// TestMemoKeyDistinguishes: the key covers every shape field, the
// prefetch cursor and every field of every operation, so changing any
// one of them misses.
func TestMemoKeyDistinguishes(t *testing.T) {
	base := memsim.New(machine.ICX8360Y()).Shape()
	ops := []struct {
		start, n int64
		kind     memsim.AccessKind
	}{{100, 8, memsim.AccessLoad}, {200, 3, memsim.AccessRFO}, {300, 1, memsim.AccessClaimI2M}}
	var k keyer
	key := func(s memsim.Shape, edit func(i int, start, n *int64, kind *memsim.AccessKind)) memoKey {
		k.reset(s)
		for i, op := range ops {
			start, n, kind := op.start, op.n, op.kind
			if edit != nil {
				edit(i, &start, &n, &kind)
			}
			k.AccessRange(start, n, kind)
		}
		return k.sum()
	}
	want := key(base, nil)
	if again := key(base, nil); again != want {
		t.Fatal("the same shape and operations gave two keys")
	}
	memo := NewMemo()
	stored := memoValue{delta: memsim.Counts{Loads: 11}, cursor: 3}
	memo.do(want, func() memoValue { return stored })

	var variants []memoKey
	for _, edit := range []func(*memsim.Shape){
		func(s *memsim.Shape) { s.Sets[0] *= 2 }, func(s *memsim.Shape) { s.Sets[1] *= 2 }, func(s *memsim.Shape) { s.Sets[2] *= 2 },
		func(s *memsim.Shape) { s.Ways[0]++ }, func(s *memsim.Shape) { s.Ways[1]++ }, func(s *memsim.Shape) { s.Ways[2]++ },
		func(s *memsim.Shape) { s.PFOn = !s.PFOn }, func(s *memsim.Shape) { s.AdjacentOn = !s.AdjacentOn },
		func(s *memsim.Shape) { s.PFDistance++ }, func(s *memsim.Shape) { s.PFCursor++ },
	} {
		s := base
		edit(&s)
		variants = append(variants, key(s, nil))
	}
	for i := range ops {
		variants = append(variants,
			key(base, func(j int, start, _ *int64, _ *memsim.AccessKind) {
				if j == i {
					*start++
				}
			}),
			key(base, func(j int, _, n *int64, _ *memsim.AccessKind) {
				if j == i {
					*n++
				}
			}),
			key(base, func(j int, _, _ *int64, kind *memsim.AccessKind) {
				if j == i {
					*kind = memsim.AccessWriteNT
				}
			}))
	}
	k.reset(base)
	k.AccessRange(ops[0].start, ops[0].n, ops[0].kind)
	variants = append(variants, k.sum()) // a prefix of the sequence

	seen := map[memoKey]int{want: -1}
	for i, v := range variants {
		if j, dup := seen[v]; dup {
			t.Errorf("variant %d has the key of variant %d", i, j)
		}
		seen[v] = i
		replayed := false
		memo.do(v, func() memoValue { replayed = true; return memoValue{} })
		if !replayed {
			t.Errorf("variant %d hit the base entry", i)
		}
	}
	if got, hit := memo.do(want, func() memoValue { t.Error("base key replayed again"); return memoValue{} }); !hit || got != stored {
		t.Errorf("base key: %+v hit %v, want %+v", got, hit, stored)
	}
}

// TestKeyerSkipsEmptyRuns: memsim ignores runs of no lines, so the key
// does too, and a long sequence crossing the keyer's buffer hashes the
// same in one executor as in a fresh one.
func TestKeyerSkipsEmptyRuns(t *testing.T) {
	s := memsim.New(machine.ICX8360Y()).Shape()
	var a, b keyer
	a.reset(s)
	b.reset(s)
	for i := int64(0); i < 1000; i++ {
		a.AccessRange(i*10, 4, memsim.AccessLoad)
		b.AccessRange(i*10, 4, memsim.AccessLoad)
		b.AccessRange(i*10+4, 0, memsim.AccessRFO)
		b.AccessRange(i*10+4, -1, memsim.AccessRFO)
	}
	if a.sum() != b.sum() {
		t.Error("empty runs changed the key")
	}
	var fresh keyer
	fresh.reset(s)
	fresh.AccessRange(0, 4, memsim.AccessLoad)
	a.reset(s)
	a.AccessRange(0, 4, memsim.AccessLoad)
	if a.sum() != fresh.sum() {
		t.Error("a reused keyer hashed differently from a fresh one")
	}
}

// TestMemoSingleFlight: concurrent lookups of one key replay it once;
// the others wait and are served its value.
func TestMemoSingleFlight(t *testing.T) {
	const n = 8
	var waiting atomic.Int32
	memoWaitHook = func() { waiting.Add(1) }
	t.Cleanup(func() { memoWaitHook = nil })

	memo := NewMemo()
	want := memoValue{delta: memsim.Counts{MemReadLines: 42}, cursor: 5}
	release := make(chan struct{})
	var replays atomic.Int32
	got := make([]memoValue, n)
	hit := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], hit[i] = memo.do(memoKey{1}, func() memoValue {
				replays.Add(1)
				<-release
				return want
			})
		}()
	}
	waitFor(t, func() bool { return waiting.Load() == n-1 })
	close(release)
	wg.Wait()
	hits := 0
	for i := range got {
		if got[i] != want {
			t.Errorf("lookup %d got %+v, want %+v", i, got[i], want)
		}
		if hit[i] {
			hits++
		}
	}
	if replays.Load() != 1 || hits != n-1 {
		t.Errorf("%d replays and %d hits, want 1 and %d", replays.Load(), hits, n-1)
	}
	if st := memo.Stats(); st != (MemoStats{Hits: n - 1, Replays: 1}) {
		t.Errorf("stats %+v", st)
	}
}

// TestMemoPanicReleasesWaiters: a replay that panics stores nothing and
// wakes the lookups waiting on its key; one of them replays in its place.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	var waiting atomic.Int32
	memoWaitHook = func() { waiting.Add(1) }
	t.Cleanup(func() { memoWaitHook = nil })

	memo := NewMemo()
	k := memoKey{2}
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		memo.do(k, func() memoValue {
			close(started)
			<-release
			panic("replay bug")
		})
	}()
	<-started
	want := memoValue{delta: memsim.Counts{RFOs: 9}}
	waiter := make(chan bool, 1)
	go func() {
		v, hit := memo.do(k, func() memoValue { return want })
		waiter <- hit || v != want
	}()
	waitFor(t, func() bool { return waiting.Load() == 1 })
	close(release)
	if p := <-panicked; p != "replay bug" {
		t.Fatalf("leader recovered %v, want the replay's panic", p)
	}
	if wrong := <-waiter; wrong {
		t.Error("the waiter was served instead of replaying after the panic")
	}
	if st := memo.Stats(); st != (MemoStats{Replays: 2}) {
		t.Errorf("stats %+v, want two replays", st)
	}
	if v, hit := memo.do(k, func() memoValue { return memoValue{} }); !hit || v != want {
		t.Errorf("after the panic the key holds %+v (hit %v), want the waiter's %+v", v, hit, want)
	}
	if len(memo.inflight) != 0 {
		t.Errorf("%d keys still in flight", len(memo.inflight))
	}
}

// TestRunPanicCachesNothing: a loop whose replay panics (a store past
// memsim's range, after the engine drew dice for it) propagates the
// panic from Run, leaves no entry and no claimed key behind, and does
// not block a second executor on the key. It leaves its executor as it
// was, so the executor's next loop matches the plain replay, and it
// gives its hierarchy back: with every other hierarchy the pool may
// lend held here, that next loop still gets one.
func TestRunPanicCachesNothing(t *testing.T) {
	ar := NewArena(true)
	near := ar.Alloc("near", 0, 1023, 0, 3)
	far := ar.Alloc("far", 0, 1023, 0, 3)
	far.Base = 1 << 50
	l := &Loop{Name: "far", Reads: []Access{{A: near}}, Writes: []Write{{A: far}}, Eligible: true}
	b := Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 3}
	for range runtime.GOMAXPROCS(0) - 1 {
		h := memsim.Borrow(machine.ICX8360Y())
		defer memsim.Return(h)
	}
	loops, lb := memoLoops()
	memo := NewMemo()
	for i := 0; i < 2; i++ {
		x, ref := memoExec(memo, 1), newPlain(1)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the simulated range") {
					t.Errorf("run %d recovered %v, want memsim's range panic", i, r)
				}
			}()
			x.Run(l, b)
		}()
		next := make(chan memsim.Counts, 1)
		go func() { next <- x.Run(loops[0], lb) }()
		select {
		case got := <-next:
			if want := ref.run(loops[0], lb); got != want {
				t.Errorf("run %d: the loop after the panic gave %+v, plain replay %+v", i, got, want)
			}
			sameState(t, fmt.Sprintf("run %d after the panic", i), x, ref)
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d: the loop after the panic got no hierarchy", i)
		}
	}
	if len(memo.inflight) != 0 || len(memo.done) != 1 {
		t.Errorf("after panics the memo holds %d entries, %d in flight; want only the healthy loop's", len(memo.done), len(memo.inflight))
	}
}

// TestMemoLimit: past its entry cap a memo replays without storing, and
// a memo of cap 0 never serves anything.
func TestMemoLimit(t *testing.T) {
	memo := newMemo(2)
	for i := byte(0); i < 3; i++ {
		memo.do(memoKey{i}, func() memoValue { return memoValue{cursor: i} })
	}
	if len(memo.done) != 2 {
		t.Fatalf("memo of cap 2 stores %d entries", len(memo.done))
	}
	replayed := false
	memo.do(memoKey{2}, func() memoValue { replayed = true; return memoValue{} })
	if !replayed {
		t.Error("the key past the cap was served")
	}
	if _, hit := memo.do(memoKey{0}, func() memoValue { return memoValue{} }); !hit {
		t.Error("a key under the cap was not served")
	}

	none := newMemo(0)
	loops, b := memoLoops()
	for i := 0; i < 2; i++ {
		memoExec(none, 5).Run(loops[1], b)
	}
	if st := none.Stats(); st != (MemoStats{Replays: 2}) || len(none.done) != 0 {
		t.Errorf("memo of cap 0: stats %+v, %d entries", st, len(none.done))
	}
}

// TestContextMemo: a ctx carries one memo; without one, every caller
// gets a memo of its own.
func TestContextMemo(t *testing.T) {
	m := NewMemo()
	ctx := WithMemo(t.Context(), m)
	if ContextMemo(ctx) != m {
		t.Error("ContextMemo did not return the memo ctx carries")
	}
	a, b := ContextMemo(t.Context()), ContextMemo(t.Context())
	if a == nil || a == b || a == m {
		t.Error("a ctx without a memo must give each caller a new one")
	}
}

// waitFor polls cond, yielding, and fails the test after 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
		runtime.Gosched()
	}
}
