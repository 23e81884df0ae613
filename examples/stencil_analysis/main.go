// Stencil analysis: use the library on a loop the paper never saw — a 2D
// 5-point Jacobi sweep — to show how a downstream user analyzes their own
// kernel: analytic code-balance limits (layer conditions, write-allocate),
// simulated traffic across core counts, and the effect of short inner
// dimensions on SpecI2M.
package main

import (
	"fmt"

	"cloversim/internal/machine"
	"cloversim/internal/model"
	"cloversim/internal/trace"
)

func main() {
	spec := machine.ICX8360Y()

	build := func(rowElems int) (*trace.Loop, trace.Bounds) {
		ar := trace.NewArena(true)
		rows := 64
		x := ar.Alloc("x", 0, rowElems+1, 0, rows+1)
		y := ar.Alloc("y", 0, rowElems+1, 0, rows+1)
		loop := &trace.Loop{
			Name: "jacobi5",
			Reads: []trace.Access{
				{A: x, DJ: 0, DK: -1}, {A: x, DJ: -1, DK: 0}, {A: x, DJ: 0, DK: 0},
				{A: x, DJ: 1, DK: 0}, {A: x, DJ: 0, DK: 1},
			},
			Writes:     []trace.Write{{A: y, NT: true}},
			FlopsPerIt: 5,
			Eligible:   true,
		}
		return loop, trace.Bounds{JLo: 1, JHi: rowElems, KLo: 1, KHi: rows}
	}

	// Analytic model first.
	loop, _ := build(4096)
	m := model.FromLoop(loop)
	fmt.Println("Jacobi 5-point stencil, analytic model:")
	fmt.Printf("  min (LC ok, WA evaded)  %d byte/it\n", m.BytesMin())
	fmt.Printf("  LC ok + write-allocate  %d byte/it\n", m.BytesLCFWA())
	fmt.Printf("  LC broken, WA evaded    %d byte/it\n", m.BytesLCB())
	fmt.Printf("  worst case              %d byte/it\n", m.BytesMax())
	fmt.Printf("  layer condition: 3 rows of %d elements need %.0f KiB cache\n",
		4096, float64(model.LayerCondition(3, 4096))/1024)

	// Simulated traffic: long vs short inner dimension across core counts.
	fmt.Println("\nsimulated byte/it (SpecI2M), long (4096) vs short (216) rows:")
	fmt.Println("cores   long rows   short rows")
	for _, n := range []int{1, 4, 9, 18, 36, 72} {
		line := fmt.Sprintf("%5d", n)
		for _, dim := range []int{4096, 216} {
			loop, b := build(dim)
			x := trace.NewExecutor(spec, nil)
			x.Env = trace.Env{
				Pressure:      spec.PressureAt(0, n),
				NodeFraction:  float64(n) / float64(spec.Cores()),
				ActiveSockets: spec.ActiveSockets(n),
				PFOn:          true,
			}
			c := x.Run(loop, b)
			bpi := float64(c.TotalBytes()) / float64(b.Iterations())
			line += fmt.Sprintf("  %9.2f", bpi)
		}
		fmt.Println(line)
	}
	fmt.Println("\nShort rows keep the write-allocate: the SpecI2M run detector never")
	fmt.Println("warms up — the same mechanism behind the paper's prime-number effect.")
}
