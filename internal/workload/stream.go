package workload

import (
	"cloversim/internal/model"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// streamLoops builds the copy and triad loop definitions over a fresh
// arena sized to the config's mesh.
func streamLoops(c Config) (copyL, triadL *trace.Loop, b trace.Bounds) {
	ar := trace.NewArena(true)
	a := ar.Alloc("a", 1, c.MeshX, 1, c.MeshY)
	bb := ar.Alloc("b", 1, c.MeshX, 1, c.MeshY)
	cc := ar.Alloc("c", 1, c.MeshX, 1, c.MeshY)
	copyL = &trace.Loop{
		Name:     "stream_copy",
		Reads:    []trace.Access{{A: bb}},
		Writes:   []trace.Write{{A: a, NT: true}},
		Eligible: true,
	}
	triadL = &trace.Loop{
		Name:       "stream_triad",
		Reads:      []trace.Access{{A: bb}, {A: cc}},
		Writes:     []trace.Write{{A: a, NT: true}},
		FlopsPerIt: 2,
		Eligible:   true,
	}
	return copyL, triadL, trace.Bounds{JLo: 1, JHi: c.MeshX, KLo: 1, KHi: c.MeshY}
}

// streamRun models the STREAM-style copy and triad kernels: the
// canonical pure streaming workloads the paper's microbenchmarks
// bracket. Copy (a = b) is the Fig. 6/8 shape; triad (a = b + s*c)
// adds a second read stream. Mesh semantics: X elements per row, Y
// rows, row-major — one contiguous stream per array.
func streamRun(c Config) (sweep.Metrics, error) {
	copyL, triadL, b := streamLoops(c)
	var out sweep.Metrics

	x := newKernelExecutor(c)
	cnt, iters := x.Run(copyL, b), float64(b.Iterations())
	out.Add("stream_copy_read_bpi", float64(cnt.ReadBytes())/iters)
	out.Add("stream_copy_write_bpi", float64(cnt.WriteBytes())/iters)
	out.Add("stream_copy_itom_bpi", float64(cnt.ItoMLines*64)/iters)
	// Traffic ratio vs the ideal 16 byte/it (8 read + 8 write): 1.0 =
	// all write-allocates evaded, 1.5 = every store pays an RFO.
	out.Add("stream_copy_ratio", float64(cnt.TotalBytes())/(16*iters))

	cnt, iters = x.Run(triadL, b), float64(b.Iterations())
	out.Add("stream_triad_read_bpi", float64(cnt.ReadBytes())/iters)
	out.Add("stream_triad_write_bpi", float64(cnt.WriteBytes())/iters)
	out.Add("stream_triad_itom_bpi", float64(cnt.ItoMLines*64)/iters)
	out.Add("stream_triad_ratio", float64(cnt.TotalBytes())/(24*iters))
	return out, nil
}

// streamAnalytic returns the code-balance bounds of both kernels from
// the loop models: minimum (no write-allocates) and with full WAs.
func streamAnalytic(c Config) (sweep.Metrics, bool) {
	copyL, triadL, _ := streamLoops(c)
	var out sweep.Metrics
	cm := model.FromLoop(copyL)
	tm := model.FromLoop(triadL)
	out.Add("stream_copy_bytes_min", float64(cm.BytesMin()))
	out.Add("stream_copy_bytes_wa", float64(cm.BytesLCFWA()))
	out.Add("stream_triad_bytes_min", float64(tm.BytesMin()))
	out.Add("stream_triad_bytes_wa", float64(tm.BytesLCFWA()))
	return out, true
}
