package cloverleaf

import (
	"sync"

	"cloversim/internal/decomp"
)

// world is where the ranks of one run meet. Each rank is a goroutine,
// and all of them share memory: a halo cell is read straight from the
// field of the rank that owns it, so nothing is sent or received, and
// the ranks only have to agree on when. That is what meet does.
type world struct {
	cfg Config
	// fields[id] is the list rank id's current halo update refreshes.
	// Rank id sets it before the update's first meeting, and its
	// neighbours read it only between that meeting and the last.
	fields [][]HaloField

	mu    sync.Mutex
	cond  *sync.Cond
	gen   uint64      // meetings completed
	count int         // ranks at the current meeting
	in    [][]float64 // in[id]: rank id's contribution to the current meeting
	out   []float64   // the last meeting's combined contributions
}

func newWorld(cfg Config, n int) *world {
	w := &world{cfg: cfg, fields: make([][]HaloField, n), in: make([][]float64, n)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// rank builds rank id's chunk of the mesh, decomposed over the world's
// ranks as CloverLeaf does.
func (w *world) rank(id int) *Rank {
	n, cfg := len(w.fields), w.cfg
	s := decomp.Decompose(n, cfg.GridX, cfg.GridY)[id]
	cx, cy := decomp.Factorize(n, cfg.GridX, cfg.GridY)
	l, r, b, t := decomp.Neighbors(s, cx, cy)
	return &Rank{
		Chunk: NewChunk(cfg, s.XMin, s.XMax, s.YMin, s.YMax),
		Nbr:   Neighbors{l, r, b, t},
		id:    id,
		w:     w,
		dtOld: cfg.DtInit,
		cfg:   cfg,
	}
}

// run builds every rank in a goroutine of its own, runs body on it and
// returns once every body has returned.
func (w *world) run(body func(r *Rank)) {
	var wg sync.WaitGroup
	wg.Add(len(w.fields))
	for id := range w.fields {
		go func() {
			defer wg.Done()
			body(w.rank(id))
		}()
	}
	wg.Wait()
}

// meet returns once every rank has called it, with the contributions v
// of all ranks (each of one length) combined by op in rank order,
// whatever order the ranks arrive in, so every run of one world
// combines to the same bits. A meeting without contributions orders
// the phases of a halo update.
func (w *world) meet(id int, v []float64, op func(a, b float64) float64) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.gen
	w.in[id] = append(w.in[id][:0], v...)
	if w.count++; w.count == len(w.in) {
		w.out = append(w.out[:0], w.in[0]...)
		for _, x := range w.in[1:] {
			for i := range w.out {
				w.out[i] = op(w.out[i], x[i])
			}
		}
		w.count = 0
		w.gen++
		w.cond.Broadcast()
	}
	for w.gen == gen {
		w.cond.Wait()
	}
	return append([]float64(nil), w.out...)
}
