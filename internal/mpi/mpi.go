// Package mpi is an in-process message-passing substrate with the subset
// of MPI semantics the CloverLeaf hydro driver calls: non-blocking
// point-to-point (Isend/Irecv/Waitall) and Allreduce, executed by one
// goroutine per rank. It has no Reduce, Barrier or other collectives.
//
// It moves data and models no time: the MPI time of Figs. 2 and 4 comes
// from the node time model in internal/cloverleaf, which counts the
// hydro cycle's halo exchanges and reductions analytically.
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

// reducer implements generation-counted collective rendezvous. It
// keeps each rank's contribution and reduces them in rank order once
// the last arrives, so the result does not depend on arrival order.
type reducer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	gen    uint64
	count  int
	in     [][]float64 // in[rank] is that rank's contribution
	result []float64
}

func newReducer(size int) *reducer {
	r := &reducer{in: make([][]float64, size)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// World owns the ranks' shared communication state.
type World struct {
	size int
	mail [][]*mailbox // mail[dst][src]
	red  *reducer
}

// NewWorld creates a communicator world of the given size.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{size: size, red: newReducer(size)}
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
// for all to finish.
//
//lint:allow ctxflow rank goroutines are one cell's bounded physics; they always terminate with the hydro step
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(&Comm{w: w, rank: r})
	}
	wg.Wait()
}

// Comm is one rank's endpoint.
type Comm struct {
	w    *World
	rank int
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
	kind reqKind
	peer int
	tag  int
	buf  []float64
	done bool
}

// Isend posts a non-blocking send of data to rank dst. The data is copied
// immediately (eager protocol).
func (c *Comm) Isend(data []float64, dst, tag int) *Request {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.w.mail[dst][c.rank].put(message{tag: tag, data: cp})
	return &Request{kind: reqSend, peer: dst, tag: tag}
}

// Irecv posts a non-blocking receive into buf from rank src.
func (c *Comm) Irecv(buf []float64, src, tag int) *Request {
	return &Request{kind: reqRecv, peer: src, tag: tag, buf: buf}
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

// Allreduce combines in across all ranks with op; every rank receives the
// result. Contributions are combined in rank order, whatever order they
// arrive in, so every run of one world reduces to the same bits.
func (c *Comm) Allreduce(in []float64, op Op) []float64 {
	r := c.w.red
	r.mu.Lock()
	g := r.gen
	r.in[c.rank] = append(r.in[c.rank][:0], in...)
	r.count++
	if r.count == c.w.size {
		r.result = append(r.result[:0], r.in[0]...)
		for _, v := range r.in[1:] {
			for i := range r.result {
				r.result[i] = op.apply(r.result[i], v[i])
			}
		}
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

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}
