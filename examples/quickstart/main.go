// Quickstart: run a small CloverLeaf simulation on one in-process rank
// (the serial run) and on four, check that the two agree, then
// reproduce the paper's Table I for a single core.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"cloversim"
	"cloversim/internal/cloverleaf"
)

func main() {
	// 1. Real hydrodynamics: a 240^2 grid for 30 steps.
	cfg := cloverleaf.Small(240, 30)
	one, err := cloverleaf.Run(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	four, err := cloverleaf.Run(cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CloverLeaf 240x240, 30 steps")
	fmt.Printf("  1 rank: mass %.8e  internal energy %.8e\n", one.Mass, one.InternalEnergy)
	fmt.Printf("  4 rank: mass %.8e  internal energy %.8e\n", four.Mass, four.InternalEnergy)
	// The ranks compute every cell bit for bit as the one-rank run does;
	// only the order in which the summary adds up the cells differs.
	if rel(one.Mass, four.Mass) > 1e-12 {
		log.Fatalf("1-rank and 4-rank runs diverged: mass %.17g vs %.17g", one.Mass, four.Mass)
	}
	fmt.Println("  1-rank and 4-rank runs agree ✔")

	// 2. Memory-traffic study: single-core code balance vs Table I.
	table, err := cloversim.TableI(context.Background(), cloversim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	meas, err := table.Floats("bpi_paper_meas")
	if err != nil {
		log.Fatal(err)
	}
	sim, err := table.Floats("bpi_simulated")
	if err != nil {
		log.Fatal(err)
	}
	var worst float64
	for i := range meas {
		worst = math.Max(worst, math.Abs(sim[i]-meas[i])/meas[i])
	}
	fmt.Printf("\nTable I single-core code balance (worst error vs paper: %.1f%%)\n", 100*worst)
	fmt.Println(table.Format())
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), 1e-300)
}
