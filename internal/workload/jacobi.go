package workload

import (
	"cloversim/internal/model"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// jacobiLoop builds the stencil loop over a fresh arena.
func jacobiLoop(c Config) (*trace.Loop, trace.Bounds) {
	ar := trace.NewArena(true)
	a := ar.Alloc("a", 0, c.MeshX+1, 0, c.MeshY+1)
	b := ar.Alloc("b", 0, c.MeshX+1, 0, c.MeshY+1)
	l := &trace.Loop{
		Name: "jacobi5",
		Reads: []trace.Access{
			{A: a, DJ: 0, DK: -1},
			{A: a, DJ: -1, DK: 0},
			{A: a, DJ: 1, DK: 0},
			{A: a, DJ: 0, DK: 1},
		},
		Writes:     []trace.Write{{A: b, NT: true}},
		FlopsPerIt: 4,
		Eligible:   true,
	}
	return l, trace.Bounds{JLo: 1, JHi: c.MeshX, KLo: 1, KHi: c.MeshY}
}

// jacobiRun models a 2D 5-point Jacobi sweep (b = c*(a[W]+a[E]+a[S]+
// a[N])): the textbook stencil whose layer conditions (Sec. II-C) and
// write-allocate behaviour the paper's analysis generalizes to. Mesh
// semantics: X inner columns, Y inner rows, plus a one-cell halo.
func jacobiRun(c Config) (sweep.Metrics, error) {
	l, b := jacobiLoop(c)
	x := newKernelExecutor(c)
	cnt, iters := x.Run(l, b), float64(b.Iterations())
	var out sweep.Metrics
	out.Add("jacobi_read_bpi", float64(cnt.ReadBytes())/iters)
	out.Add("jacobi_write_bpi", float64(cnt.WriteBytes())/iters)
	out.Add("jacobi_itom_bpi", float64(cnt.ItoMLines*64)/iters)
	out.Add("jacobi_total_bpi", float64(cnt.TotalBytes())/iters)
	// Ratio vs the LC-fulfilled, no-WA minimum of 16 byte/it.
	out.Add("jacobi_ratio", float64(cnt.TotalBytes())/(16*iters))
	return out, nil
}

// jacobiAnalytic evaluates the layer conditions of the stencil for the
// config's row length on the config's machine: the innermost cache
// level satisfying the LC and the resulting code-balance bounds.
func jacobiAnalytic(c Config) (sweep.Metrics, bool) {
	l, _ := jacobiLoop(c)
	lc := model.AnalyzeLC(l, c.MeshX+2, c.Machine)
	var out sweep.Metrics
	out.Add("jacobi_lc_level", float64(lc.Level))
	out.Add("jacobi_bytes_lcf", float64(lc.BytesPerItLCF))
	out.Add("jacobi_bytes_lcb", float64(lc.BytesPerItLCB))
	out.Add("jacobi_max_block", float64(lc.MaxBlock))
	return out, true
}
