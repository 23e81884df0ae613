// Package dispatch is the remote execution backend of the sweep
// engine: it shards a campaign's cold cells across a fleet of sweepd
// workers over the explicit-scenario form of POST /v1/expand, which
// answers NDJSON.
//
// A Fleet replaces the engine's local worker pool as its Backend. The
// engine stays the host-side brain — memoizer, persistent store
// probe/write-through, deduplication, deterministic grid ordering —
// and hands the fleet one batch of scenarios that genuinely need
// simulation. The fleet turns them into metrics:
//
//   - Capacity-weighted sharding. Each worker advertises its
//     simulation capacity in /v1/healthz; the dispatcher keeps one
//     chunk of that many cells in flight per worker, so a big box
//     naturally pulls more of the campaign than a laptop.
//   - Retry with exclusion. A worker that fails at the transport or
//     HTTP level is excluded for the rest of the batch and its
//     in-flight cells are requeued for the survivors. Only when no
//     live workers remain do the leftover cells fail.
//   - Straggler re-dispatch. When the queue is drained but a chunk
//     has been in flight longer than 30 s, an idle worker
//     re-dispatches it. The first completion wins (the engine's report
//     funnel is idempotent), so duplicated execution can never
//     duplicate results — it only costs the straggler's re-simulation.
//     Recovery from a stalled-but-connected worker therefore needs a
//     second live worker to steal its cells; when the stalled worker
//     is the only one left, the in-flight call is bounded by campaign
//     cancellation (Ctrl-C) and TCP-level failure detection, not by
//     this package — expand requests have no HTTP timeout, because a
//     legitimate cold chunk can simulate for minutes.
//   - Physics hygiene. New refuses to assemble a fleet whose workers
//     disagree with the client's physics version: results simulated
//     under different physics must never merge into one campaign.
//
// Results come back bit-exact (IEEE-754 bits on the wire) and flow
// through the engine's normal write-through, so a distributed campaign
// is byte-identical to a local cold run and exactly as resumable.
//
// Each cell of a chunk reports the moment its frame arrives, so the
// engine's progress sees remote completions in real time instead of at
// chunk granularity, and a mid-chunk worker death costs only the cells
// whose frames never arrived — the surfaced prefix is kept, not
// re-simulated. Workers also advertise their per-request cell cap in
// healthz, and chunks are clamped to it, so a big-capacity worker
// behind a small -max-cells never sees its batches bounced with 400s.
package dispatch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

const healthzTimeout = 10 * time.Second

// worker is one fleet member: its typed client plus the capacity and
// per-request cell cap it advertised at fleet assembly.
type worker struct {
	client   *sweepd.Client
	capacity int
	maxCells int // 0 = not advertised (pre-cap worker), no clamp
}

// chunk is the worker's effective chunk size: its capacity, clamped to
// the largest expand request it accepts.
func (w *worker) chunk() int {
	if w.maxCells > 0 && w.capacity > w.maxCells {
		return w.maxCells
	}
	return w.capacity
}

// Fleet shards scenario batches across sweepd workers. It implements
// sweep.Backend; assemble with New.
type Fleet struct {
	// maxAttempts bounds how often one cell may be dispatched (first
	// try, requeues after worker failures or worker-side cancellation,
	// straggler re-dispatches). A cell that exhausts its attempts
	// fails rather than looping forever against a fleet that keeps
	// accepting and bouncing it.
	maxAttempts int
	// stragglerAfter is how long a dispatched chunk may be in flight
	// before idle workers re-dispatch its cells. It stays well above a
	// worker's expected chunk latency: stealing too eagerly wastes
	// simulation, never correctness.
	stragglerAfter time.Duration

	workers []*worker
}

// New assembles a fleet from worker base URLs (scheme-less host[:port]
// is promoted to http://). Every worker is probed via /v1/healthz:
// an unreachable worker fails assembly (a fleet that silently starts
// smaller than declared hides operator typos), and so does a worker
// whose physics version differs from the client's — a mixed-physics
// fleet would merge incomparable results into one campaign.
func New(ctx context.Context, urls []string, physics string) (*Fleet, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("dispatch: no workers given")
	}
	// Probe concurrently: with a big fleet, serial 10s health timeouts
	// would delay campaign start (or its fail-fast) by minutes.
	f := &Fleet{maxAttempts: 3, stragglerAfter: 30 * time.Second, workers: make([]*worker, len(urls))}
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			c := sweepd.NewClient(u)
			hctx, cancel := context.WithTimeout(ctx, healthzTimeout)
			h, err := c.Healthz(hctx)
			cancel()
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("dispatch: worker %s: %w", c.BaseURL, err)
				return
			case !h.OK:
				errs[i] = fmt.Errorf("dispatch: worker %s reports not ok", c.BaseURL)
				return
			case h.Physics != physics:
				errs[i] = fmt.Errorf("dispatch: worker %s runs physics %s, this client runs %s; refusing a mixed-physics fleet",
					c.BaseURL, h.Physics, physics)
				return
			}
			// Pin the version on the client too: a worker restarted with
			// a different binary mid-campaign fails its batches (and is
			// then excluded) instead of merging foreign-physics results.
			c.Physics = physics
			capacity := h.Capacity
			if capacity < 1 {
				capacity = 1
			}
			f.workers[i] = &worker{client: c, capacity: capacity, maxCells: h.MaxCells}
		}(i, u)
	}
	wg.Wait()
	// Deterministic error: the first bad worker in argument order, not
	// whichever probe lost the race.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Size reports the number of workers in the fleet.
func (f *Fleet) Size() int { return len(f.workers) }

// Capacity reports the fleet's aggregate simulation capacity.
func (f *Fleet) Capacity() int {
	total := 0
	for _, w := range f.workers {
		total += w.capacity
	}
	return total
}

// Execute implements sweep.Backend: one goroutine per worker pulls
// capacity-sized chunks off a shared board until every cell is
// accounted for. Completed cells report exactly once (the board
// deduplicates re-dispatched work); cells that can no longer execute —
// every worker dead, or attempts exhausted — report errors, except
// under a cancelled context, where they are left unreported so the
// engine finalizes them with its distinguished unstarted error.
func (f *Fleet) Execute(ctx context.Context, scenarios []sweep.Scenario, report sweep.ReportFunc) {
	if len(scenarios) == 0 {
		return
	}
	b := newBoard(len(scenarios), len(f.workers))
	// Dispatch requests run under a child context that is cancelled the
	// moment every cell is accounted for: a worker that stalls while
	// connected (frozen process, network black hole) would otherwise
	// hold Execute hostage on its in-flight HTTP call long after
	// straggler re-dispatch finished its cells elsewhere.
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-b.allDone:
			cancel()
		case <-dctx.Done():
		}
	}()
	var wg sync.WaitGroup
	for wi, w := range f.workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			f.runWorker(ctx, dctx, wi, w, b, scenarios, report)
		}(wi, w)
	}
	wg.Wait()
}

// runWorker is one worker's dispatch loop. Its requests run under
// dctx, the dispatch context Execute cancels once every cell is
// accounted for; ctx is the campaign's.
func (f *Fleet) runWorker(ctx, dctx context.Context, wi int, w *worker, b *board, scenarios []sweep.Scenario, report sweep.ReportFunc) {
	// emit reports board-generated failures (give-ups, dead fleet) —
	// unless the campaign is being cancelled, in which case the cells
	// stay unreported and the engine finalizes them as unstarted, not
	// failed. It asks the campaign context, not dctx: a failure that
	// accounts for the last cell makes Execute cancel dctx, and that
	// cancel must not drop the failure itself.
	emit := func(fails []failure) {
		cancelled := ctx.Err() != nil
		for _, fl := range fails {
			if !cancelled {
				report(fl.cell, nil, fl.err)
			}
		}
	}
	// handle finalizes one cell's wire result against the board.
	handle := func(i int, r sweepd.ExecResult) {
		switch {
		case r.Unstarted:
			// The worker never simulated this cell (its expand
			// deadline, a draining daemon): re-dispatchable.
			emit(b.release(wi, i, f.maxAttempts))
		case r.Err != nil:
			// A genuine simulation failure is deterministic in the
			// scenario — retrying it elsewhere would just fail again.
			if b.complete(i) {
				report(i, nil, r.Err)
			}
		default:
			if b.complete(i) {
				report(i, r.Metrics, nil)
			}
		}
	}
	for {
		batch := b.take(dctx, wi, w.chunk(), f.stragglerAfter, f.maxAttempts)
		if len(batch) == 0 {
			return
		}
		sub := make([]sweep.Scenario, len(batch))
		for k, i := range batch {
			sub[k] = scenarios[i]
		}
		// Each cell finalizes the moment its frame arrives, so
		// straggler accounting tracks cells, not chunks. surfaced
		// remembers which cells were delivered so a mid-stream failure
		// requeues only the rest.
		surfaced := make([]bool, len(batch))
		_, err := w.client.ExecuteScenarios(dctx, sub, func(k int, r sweepd.ExecResult) {
			surfaced[k] = true
			handle(batch[k], r)
		})
		if err != nil {
			// Worker-level failure: exclude this worker for the rest of
			// the batch, requeue its unaccounted cells for the survivors.
			var rest []int
			for k, i := range batch {
				if !surfaced[k] {
					rest = append(rest, i)
				}
			}
			emit(b.workerFailed(wi, rest, f.maxAttempts,
				fmt.Errorf("dispatch: worker %s failed: %w", w.client.BaseURL, err)))
			return
		}
	}
}

// failure is one cell the board decided can no longer execute.
type failure struct {
	cell int
	err  error
}

// cellState tracks one scenario's dispatch lifecycle on the board.
type cellState struct {
	attempts int
	owners   map[int]bool // worker index -> currently in flight there
	since    time.Time    // start of the most recent dispatch
	done     bool
}

// board is the shared dispatch state: a pending queue, per-cell
// in-flight ownership, and a wake channel so idle workers block
// instead of spinning.
type board struct {
	mu        sync.Mutex
	wake      chan struct{} // closed and replaced on every state change
	allDone   chan struct{} // closed once when remaining reaches 0
	pending   []int
	cells     []cellState
	remaining int // cells not yet done
	live      int // workers not yet failed
	lastFail  error
}

func newBoard(cells, workers int) *board {
	b := &board{
		wake:      make(chan struct{}),
		allDone:   make(chan struct{}),
		pending:   make([]int, cells),
		cells:     make([]cellState, cells),
		remaining: cells,
		live:      workers,
	}
	for i := range b.pending {
		b.pending[i] = i
	}
	return b
}

// decRemaining retires one cell, signalling allDone at zero. Callers
// hold b.mu.
func (b *board) decRemaining() {
	b.remaining--
	if b.remaining == 0 {
		close(b.allDone)
	}
}

// broadcast wakes every blocked take. Callers hold b.mu.
func (b *board) broadcast() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// take hands worker wi its next chunk of up to n cells: pending cells
// first; when the queue is drained, cells another worker has had in
// flight longer than stragglerAfter (and that still have attempts
// left). It blocks while there is nothing to do but other workers are
// still executing, and returns nil when the batch is finished, the
// context is cancelled, or nothing this worker may run remains.
func (b *board) take(ctx context.Context, wi, n int, stragglerAfter time.Duration, maxAttempts int) []int {
	if n < 1 {
		n = 1
	}
	for {
		b.mu.Lock()
		if b.remaining == 0 || ctx.Err() != nil {
			b.mu.Unlock()
			return nil
		}
		var batch []int
		for len(batch) < n && len(b.pending) > 0 {
			i := b.pending[0]
			b.pending = b.pending[1:]
			c := &b.cells[i]
			if c.done {
				continue
			}
			b.claim(c, wi)
			batch = append(batch, i)
		}
		if len(batch) > 0 {
			b.mu.Unlock()
			return batch
		}
		// Queue drained: look for stragglers this worker may steal, and
		// otherwise work out how long until the oldest becomes eligible.
		//lint:allow nondet straggler clock: re-dispatch timing only; first-report-wins keeps results byte-identical
		now := time.Now()
		wait := time.Duration(-1)
		for i := range b.cells {
			c := &b.cells[i]
			if c.done || len(c.owners) == 0 || c.owners[wi] || c.attempts >= maxAttempts {
				continue
			}
			if age := now.Sub(c.since); age >= stragglerAfter {
				b.claim(c, wi)
				batch = append(batch, i)
				if len(batch) == n {
					break
				}
			} else if d := stragglerAfter - age; wait < 0 || d < wait {
				wait = d
			}
		}
		if len(batch) > 0 {
			b.mu.Unlock()
			return batch
		}
		wake := b.wake
		b.mu.Unlock()
		if wait < 0 {
			// Nothing will ever become stealable for this worker without
			// a state change (everything in flight is its own, or out of
			// attempts): block until one happens.
			select {
			case <-wake:
			case <-ctx.Done():
				return nil
			}
			continue
		}
		//lint:allow nondet straggler wake-up timer: scheduling only, never result content
		timer := time.NewTimer(wait + time.Millisecond)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil
		}
		timer.Stop()
	}
}

// claim marks a cell dispatched to worker wi. The straggler clock
// resets on every claim — a cell that was just re-dispatched must age
// again before a third worker may steal it, or every idle worker would
// pile onto the same straggler at once. Callers hold b.mu.
func (b *board) claim(c *cellState, wi int) {
	c.attempts++
	if c.owners == nil {
		c.owners = make(map[int]bool, 2)
	}
	//lint:allow nondet straggler clock reset on claim: re-dispatch timing only
	c.since = time.Now()
	c.owners[wi] = true
}

// complete finalizes a cell. It reports whether the caller won: a
// re-dispatched cell completes once, every later completion is
// dropped, so duplicated execution can never duplicate results.
func (b *board) complete(i int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &b.cells[i]
	if c.done {
		return false
	}
	c.done = true
	c.owners = nil
	b.decRemaining()
	b.broadcast()
	return true
}

// release returns one undone cell from worker wi to the queue (the
// worker was cancelled out of it). A cell with no attempts left and no
// other dispatch in flight gives up and is returned as a failure.
func (b *board) release(wi, i int, maxAttempts int) []failure {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.releaseLocked(wi, i, maxAttempts, nil)
}

func (b *board) releaseLocked(wi, i, maxAttempts int, cause error) []failure {
	c := &b.cells[i]
	delete(c.owners, wi)
	if c.done {
		return nil
	}
	if len(c.owners) > 0 {
		// Another worker still has it in flight; its result decides.
		return nil
	}
	if c.attempts >= maxAttempts {
		c.done = true
		b.decRemaining()
		b.broadcast()
		err := fmt.Errorf("dispatch: giving up after %d dispatch attempts", c.attempts)
		if cause != nil {
			err = fmt.Errorf("%w; last: %w", err, cause)
		}
		return []failure{{cell: i, err: err}}
	}
	b.pending = append(b.pending, i)
	b.broadcast()
	return nil
}

// workerFailed excludes worker wi after a transport/HTTP-level failure
// and requeues its in-flight chunk. When it was the last live worker,
// every remaining cell is drained as a failure — there is nobody left
// to execute them.
func (b *board) workerFailed(wi int, batch []int, maxAttempts int, cause error) []failure {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	b.lastFail = cause
	var fails []failure
	for _, i := range batch {
		fails = append(fails, b.releaseLocked(wi, i, maxAttempts, cause)...)
	}
	if b.live == 0 {
		for i := range b.cells {
			c := &b.cells[i]
			if c.done {
				continue
			}
			c.done = true
			b.decRemaining()
			fails = append(fails, failure{cell: i, err: fmt.Errorf(
				"dispatch: no live workers remain: %w", b.lastFail)})
		}
	}
	b.broadcast()
	return fails
}

// Interface conformance: a fleet is a sweep execution backend.
var _ sweep.Backend = (*Fleet)(nil)
