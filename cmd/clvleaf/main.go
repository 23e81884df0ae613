// Command clvleaf runs the CloverLeaf mini-app: real hydrodynamics on
// -np in-process ranks (-np 1 is the serial run), or with -measure a
// simulated memory-traffic study (the likwid-perfctr analogue). Flags
// mirror the paper's config.mk knobs where they affect the traffic
// study.
//
// Examples:
//
//	clvleaf -cells 960 -steps 87 -np 4
//	clvleaf -cells 480 -steps 20 -np 7 -measure
//	clvleaf -measure -np 72 -nt -optimize-loops
package main

import (
	"flag"
	"fmt"
	"os"

	"cloversim/internal/cloverleaf"
	"cloversim/internal/machine"
	"cloversim/internal/model"
)

func main() {
	var (
		deck     = flag.String("deck", "", "clover.in input deck (overrides -cells/-steps)")
		cells    = flag.Int("cells", 480, "grid cells per dimension (physics run)")
		steps    = flag.Int("steps", 20, "number of hydro steps (physics run)")
		np       = flag.Int("np", 1, "number of in-process ranks, one goroutine each (1 = serial run)")
		measure  = flag.Bool("measure", false, "run the memory-traffic study instead of physics")
		mach     = flag.String("machine", "icx", fmt.Sprintf("machine preset %v", machine.Names()))
		nt       = flag.Bool("nt", false, "use non-temporal store directives (NT_STORE_DIR)")
		optimize = flag.Bool("optimize-loops", false, "restructure ac01/ac05 for SpecI2M (OPTIMIZE_LOOPS)")
		noI2M    = flag.Bool("no-speci2m", false, "disable the SpecI2M feature (MSR knob)")
		unalign  = flag.Bool("unaligned", false, "skip 64-byte array alignment (ALIGN_ARRAYS=OFF)")
		maxRows  = flag.Int("max-rows", 0, "truncated y extent for the traffic study (0 = default 32, -1 = full extent)")
	)
	flag.Parse()
	rows, err := cloverleaf.RowLimit(*maxRows)
	if err != nil {
		fatal(err)
	}

	if *measure {
		spec, ok := machine.ByName(*mach)
		if !ok {
			fatal(fmt.Errorf("unknown machine %q", *mach))
		}
		res, err := cloverleaf.RunTraffic(cloverleaf.TrafficOptions{
			Machine:       spec,
			Ranks:         *np,
			MaxRows:       rows,
			AlignArrays:   !*unalign,
			NTStores:      *nt,
			OptimizeLoops: *optimize,
			SpecI2MOff:    *noI2M,
			HotspotOnly:   true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Traffic study: %d ranks on %s (SpecI2M %v, NT %v)\n",
			*np, spec.Name, !*noI2M, *nt)
		fmt.Printf("%-6s %12s %12s %12s %10s\n", "loop", "read B/it", "write B/it", "total B/it", "paper 1c")
		for _, name := range model.HotspotLoopNames() {
			l := res.Loop(name)
			row, _ := model.Table1ByName(name)
			fmt.Printf("%-6s %12.2f %12.2f %12.2f %10.2f\n", name,
				l.ReadPerIt(res.InnerCells), l.WritePerIt(res.InnerCells),
				l.BytesPerIt(res.InnerCells), row.MeasuredSingleCore)
		}
		fmt.Printf("node volume per step: %.3f GB\n", res.BytesPerStep()/1e9)
		return
	}

	cfg := cloverleaf.Small(*cells, *steps)
	if *deck != "" {
		f, err := os.Open(*deck)
		if err != nil {
			fatal(err)
		}
		cfg, err = cloverleaf.ParseDeck(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	s, err := cloverleaf.Run(cfg, *np)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("CloverLeaf %dx%d, %d steps, %d ranks\n", cfg.GridX, cfg.GridY, cfg.EndStep, *np)
	fmt.Printf("  volume          %.6e\n", s.Volume)
	fmt.Printf("  mass            %.6e\n", s.Mass)
	fmt.Printf("  internal energy %.6e\n", s.InternalEnergy)
	fmt.Printf("  kinetic energy  %.6e\n", s.KineticEnergy)
	fmt.Printf("  pressure        %.6e\n", s.Pressure)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clvleaf:", err)
	os.Exit(1)
}
