// Package mpi is an in-process message-passing substrate with the subset
// of MPI semantics the CloverLeaf hydro driver calls: non-blocking
// point-to-point (Isend/Irecv/Waitall) and Allreduce, executed by one
// goroutine per rank. It has no Reduce, Barrier or other collectives.
//
// Besides executing communication for real (data moves between ranks),
// every call also charges an analytic time model (latency + volume /
// bandwidth, log-tree reductions) so the relative MPI time breakdown of
// the paper's Fig. 4 can be reproduced without wall-clock noise.
package mpi

import (
	"fmt"
	"math"
	"sync"
)

// Op is a reduction operator.
type Op int

const (
	OpSum Op = iota
	OpMin
	OpMax
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	default:
		return a + b
	}
}

// TimeModel parameterizes the analytic communication cost model.
type TimeModel struct {
	Latency          float64 // seconds per point-to-point message
	Bandwidth        float64 // bytes/s payload bandwidth
	ReductionLatency float64 // seconds per tree stage of a reduction
}

// DefaultTimeModel matches the intra-node Intel MPI figures used for the
// machine presets.
func DefaultTimeModel() TimeModel {
	return TimeModel{Latency: 1.4e-6, Bandwidth: 11e9, ReductionLatency: 1.9e-6}
}

// Times accumulates modeled time per MPI call category (Fig. 4 rows).
// Reduce is set only by the node time model, which charges the
// application's occasional field summaries.
type Times struct {
	Isend     float64
	Waitall   float64
	Allreduce float64
	Reduce    float64
}

// Total returns the summed modeled MPI time.
func (t Times) Total() float64 {
	return t.Isend + t.Waitall + t.Allreduce + t.Reduce
}

type message struct {
	tag  int
	data []float64
}

// mailbox is an unbounded ordered queue for one (src,dst) pair.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take blocks until a message with the tag is present and removes it.
func (m *mailbox) take(tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.q {
			if msg.tag == tag {
				m.q = append(m.q[:i], m.q[i+1:]...)
				return msg
			}
		}
		m.cond.Wait()
	}
}

// reducer implements generation-counted collective rendezvous.
type reducer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	gen    uint64
	count  int
	acc    []float64
	result []float64
}

func newReducer() *reducer {
	r := &reducer{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// World owns the ranks' shared communication state.
type World struct {
	size int
	tm   TimeModel
	mail [][]*mailbox // mail[dst][src]
	red  *reducer
}

// NewWorld creates a communicator world of the given size.
func NewWorld(size int, tm TimeModel) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{size: size, tm: tm, red: newReducer()}
	w.mail = make([][]*mailbox, size)
	for d := range w.mail {
		w.mail[d] = make([]*mailbox, size)
		for s := range w.mail[d] {
			w.mail[d][s] = newMailbox()
		}
	}
	return w
}

// Run executes body once per rank, each in its own goroutine, and waits
// for all to finish. It returns the per-rank communicators for post-run
// inspection (modeled times).
//
//lint:allow ctxflow rank goroutines are one cell's bounded physics; they always terminate with the hydro step
func (w *World) Run(body func(c *Comm)) []*Comm {
	comms := make([]*Comm, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		comms[r] = &Comm{w: w, rank: r}
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(comms[r])
	}
	wg.Wait()
	return comms
}

// Comm is one rank's endpoint.
type Comm struct {
	w     *World
	rank  int
	Times Times
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// reqKind distinguishes request types.
type reqKind int

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a non-blocking operation handle.
type Request struct {
	kind  reqKind
	c     *Comm
	peer  int
	tag   int
	buf   []float64
	bytes int64
	done  bool
}

// Isend posts a non-blocking send of data to rank dst. The data is copied
// immediately (eager protocol).
func (c *Comm) Isend(data []float64, dst, tag int) *Request {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.w.mail[dst][c.rank].put(message{tag: tag, data: cp})
	c.Times.Isend += 0.2e-6 // posting overhead; transfer charged at Waitall
	return &Request{kind: reqSend, c: c, peer: dst, tag: tag, bytes: int64(len(data) * 8)}
}

// Irecv posts a non-blocking receive into buf from rank src.
func (c *Comm) Irecv(buf []float64, src, tag int) *Request {
	return &Request{kind: reqRecv, c: c, peer: src, tag: tag, buf: buf, bytes: int64(len(buf) * 8)}
}

// Wait completes one request.
func (c *Comm) Wait(r *Request) error {
	if r.done {
		return nil
	}
	r.done = true
	if r.kind == reqRecv {
		msg := c.w.mail[c.rank][r.peer].take(r.tag)
		if len(msg.data) != len(r.buf) {
			return fmt.Errorf("mpi: rank %d recv size %d != posted %d (tag %d from %d)",
				c.rank, len(msg.data), len(r.buf), r.tag, r.peer)
		}
		copy(r.buf, msg.data)
	}
	c.Times.Waitall += c.w.tm.Latency + float64(r.bytes)/c.w.tm.Bandwidth
	return nil
}

// Waitall completes all requests.
func (c *Comm) Waitall(reqs []*Request) error {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := c.Wait(r); err != nil {
			return err
		}
	}
	return nil
}

// stages returns the number of tree stages for a collective.
func (c *Comm) stages() float64 {
	if c.w.size <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(c.w.size)))
}

// rendezvous performs the collective protocol on the world's reducer:
// op merges the caller's contribution into the accumulator.
func (c *Comm) rendezvous(in []float64, op Op) []float64 {
	r := c.w.red
	r.mu.Lock()
	g := r.gen
	if r.count == 0 {
		r.acc = append(r.acc[:0], in...)
	} else {
		for i := range in {
			r.acc[i] = op.apply(r.acc[i], in[i])
		}
	}
	r.count++
	if r.count == c.w.size {
		r.result = append(r.result[:0], r.acc...)
		r.count = 0
		r.gen++
		r.cond.Broadcast()
	} else {
		for r.gen == g {
			r.cond.Wait()
		}
	}
	out := make([]float64, len(r.result))
	copy(out, r.result)
	r.mu.Unlock()
	return out
}

// Allreduce combines in across all ranks with op; every rank receives the
// result.
func (c *Comm) Allreduce(in []float64, op Op) []float64 {
	out := c.rendezvous(in, op)
	c.Times.Allreduce += c.stages() * c.w.tm.ReductionLatency * 2
	return out
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}
