// Quickstart: run a small CloverLeaf simulation serially and on four
// in-process MPI ranks, verify the two agree, then reproduce the paper's
// Table I for a single core.
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
	serial, err := cloverleaf.RunSerial(cfg)
	if err != nil {
		log.Fatal(err)
	}
	par, _, err := cloverleaf.RunMPI(cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CloverLeaf 240x240, 30 steps")
	fmt.Printf("  serial: mass %.8e  internal energy %.8e\n", serial.Mass, serial.InternalEnergy)
	fmt.Printf("  4 rank: mass %.8e  internal energy %.8e\n", par.Mass, par.InternalEnergy)
	// Halo-exchange ordering differs slightly from the serial sweep at
	// subdomain corners; agreement to ~1e-4 relative is the expected
	// envelope for this scheme.
	if rel(serial.Mass, par.Mass) > 1e-3 {
		log.Fatalf("serial and MPI runs diverged: %g vs %g", serial.Mass, par.Mass)
	}
	fmt.Println("  serial and MPI runs agree ✔")

	// 2. Memory-traffic study: single-core code balance vs Table I.
	rows, table, err := cloversim.TableI(context.Background(), cloversim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var worst float64
	for _, r := range rows {
		e := math.Abs(r.Simulated-r.MeasuredSingleCore) / r.MeasuredSingleCore
		if e > worst {
			worst = e
		}
	}
	fmt.Printf("\nTable I single-core code balance (worst error vs paper: %.1f%%)\n", 100*worst)
	fmt.Println(table.Format())
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), 1e-300)
}
