// Command perfctr is the likwid-perfctr analogue: it runs a registry
// microbenchmark kernel on simulated cores under a performance group and
// prints LIKWID-style event/metric tables. The SPECI2M group reproduces
// the custom group of the paper's Listing 4.
//
// Examples:
//
//	perfctr -g SPECI2M -k copy -C 17
//	perfctr -g MEM -k store_mem -C 72
//	perfctr -g MEM_DP -k stream -C 36 -d HW_PREFETCHER,CL_PREFETCHER,DCU_PREFETCHER,IP_PREFETCHER
//
// -d takes a likwid-features list of prefetchers to disable. The model
// switches the four prefetchers as one, so the list names all four or
// none; a list naming only some of them is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"cloversim/internal/bench"
	"cloversim/internal/likwid"
	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

func main() {
	var (
		group   = flag.String("g", "MEM", "performance group: MEM | MEM_DP | SPECI2M")
		kernel  = flag.String("k", "copy", fmt.Sprintf("kernel %v", bench.KernelNames()))
		cores   = flag.Int("C", 1, "number of cores (compact pinning)")
		mach    = flag.String("machine", "icx", fmt.Sprintf("machine preset %v", machine.Names()))
		elems   = flag.Int64("elems", 256<<10, "elements per stream per core")
		disable = flag.String("d", "", "disable the prefetchers: a likwid-features list naming all of "+strings.Join(prefetchers, ","))
	)
	flag.Parse()

	if *elems <= 0 {
		fatal(fmt.Errorf("-elems %d: want at least 1 element per stream", *elems))
	}
	spec, ok := machine.ByName(*mach)
	if !ok {
		fatal(fmt.Errorf("unknown machine %q", *mach))
	}
	g, ok := likwid.GroupByName(*group)
	if !ok {
		fatal(fmt.Errorf("unknown group %q", *group))
	}
	pfOff, err := parseDisable(*disable)
	if err != nil {
		fatal(err)
	}

	res, err := bench.RunKernel(bench.KernelOptions{
		Machine:        spec,
		Kernel:         *kernel,
		Cores:          *cores,
		ElemsPerStream: *elems,
		PFOff:          pfOff,
	})
	if err != nil {
		fatal(err)
	}

	// Convert aggregate volumes back to line counts for the event view.
	counts := memsim.Counts{
		MemReadLines:  int64(res.V.Read / 64),
		MemWriteLines: int64(res.V.Write / 64),
		ItoMLines:     int64(res.V.ItoM / 64),
	}
	// Model wall time from the machine's bandwidth curve.
	bw := 0.0
	for d := 0; d < spec.NUMADomains(); d++ {
		bw += spec.Mem.Bandwidth(spec.ActiveInDomain(*cores, d))
	}
	seconds := (res.V.Read + res.V.Write) / bw

	m := likwid.Measure(g, res.Kernel.Name, counts, int64(res.Flops), seconds)
	fmt.Print(m.Format())
	if res.WriteVolume > 0 {
		fmt.Printf("Store ratio (traffic/explicit stores): %.4f\n", res.StoreRatio())
	}
}

// prefetchers are the likwid-features names of the four prefetchers.
var prefetchers = []string{"HW_PREFETCHER", "CL_PREFETCHER", "DCU_PREFETCHER", "IP_PREFETCHER"}

// parseDisable reads a -d list and reports whether it turns the
// prefetchers off: an empty list leaves them on, a list naming all four
// turns them off. The model switches the four as one
// (memsim.Hierarchy.SetPrefetch), so a list naming only some of them is
// an error, as is an unknown name. Names are case-insensitive.
func parseDisable(list string) (bool, error) {
	named := map[string]bool{}
	for _, tok := range strings.Split(list, ",") {
		name := strings.ToUpper(strings.TrimSpace(tok))
		if name == "" {
			continue
		}
		if !slices.Contains(prefetchers, name) {
			return false, fmt.Errorf("-d: unknown feature %q (have %s)", tok, strings.Join(prefetchers, ","))
		}
		named[name] = true
	}
	switch len(named) {
	case 0:
		return false, nil
	case len(prefetchers):
		return true, nil
	}
	return false, fmt.Errorf("-d %s: the model switches %s as one; name all four or none",
		list, strings.Join(prefetchers, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfctr:", err)
	os.Exit(1)
}
