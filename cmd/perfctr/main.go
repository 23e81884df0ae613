// Command perfctr is the likwid-perfctr analogue: it runs a registry
// microbenchmark kernel on simulated cores under a performance group and
// prints LIKWID-style event/metric tables.
//
// Examples:
//
//	perfctr -g SPECI2M -k copy -C 17
//	perfctr -g MEM -k store_mem -C 72
//	perfctr -g MEM_DP -k stream -C 36 -d HW_PREFETCHER,CL_PREFETCHER,DCU_PREFETCHER,IP_PREFETCHER
//
// A group names the events it reads and the metrics it derives, and
// both come straight from the kernel's bench.Result: the memory
// controllers' CAS_COUNT_RD/WR are its read and write lines, the CHAs'
// TOR_INSERTS_IA_ITOM its SpecI2M claims, and the DP flops its
// kernel's flops per element. MEM reads the memory volumes and
// bandwidth, MEM_DP adds flops, and SPECI2M, the custom group of the
// paper's Listing 4, adds the SpecI2M claim volume. The run's time, for
// bandwidths and flop rates, is its traffic over the machine's
// bandwidth at the run's core count.
//
// -d takes a likwid-features list of prefetchers to disable. The model
// switches the four prefetchers as one, so the list names all four or
// none; a list naming only some of them is an error.
//
// Exit codes: 0 success, 1 a bad group, kernel, machine, size, core
// count or -d list, or a run that fails (a stream past the simulated
// range), with a message on stderr and nothing on stdout; 2 a flag
// that does not parse.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cloversim/internal/bench"
	"cloversim/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the kernel, prints the
// group's tables and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfctr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		group   = fs.String("g", "MEM", "performance group: MEM | MEM_DP | SPECI2M")
		kernel  = fs.String("k", "copy", fmt.Sprintf("kernel %v", bench.KernelNames()))
		cores   = fs.Int("C", 1, "number of cores (compact pinning)")
		mach    = fs.String("machine", "icx", fmt.Sprintf("machine preset %v", machine.Names()))
		elems   = fs.Int64("elems", 256<<10, "elements per stream per core")
		disable = fs.String("d", "", "disable the prefetchers: a likwid-features list naming all of "+strings.Join(prefetchers, ","))
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfctr:", err)
		return 1
	}

	if *elems <= 0 {
		return fail(fmt.Errorf("-elems %d: want at least 1 element per stream", *elems))
	}
	spec, ok := machine.ByName(*mach)
	if !ok {
		return fail(fmt.Errorf("unknown machine %q", *mach))
	}
	g, ok := groupByName(*group)
	if !ok {
		return fail(fmt.Errorf("unknown group %q", *group))
	}
	pfOff, err := parseDisable(*disable)
	if err != nil {
		return fail(err)
	}

	res, err := bench.RunKernel(bench.KernelOptions{
		Machine:        spec,
		Kernel:         *kernel,
		Cores:          *cores,
		ElemsPerStream: *elems,
		PFOff:          pfOff,
	})
	if err != nil {
		return fail(err)
	}

	// Model wall time from the machine's bandwidth curve.
	bw := 0.0
	for d := 0; d < spec.NUMADomains(); d++ {
		bw += spec.Mem.Bandwidth(spec.ActiveInDomain(*cores, d))
	}
	g.print(stdout, res, (res.V.Read+res.V.Write)/bw)
	if res.Kernel.WriteStreams > 0 {
		fmt.Fprintf(stdout, "Store ratio (traffic/explicit stores): %.4f\n", res.Ratio())
	}
	return 0
}

// group is a likwid-perfctr performance group: the events it reads and
// the metrics it derives, each in print (name) order.
type group struct {
	name            string
	events, metrics []string
}

// groups are the built-in groups.
var groups = []group{
	{"MEM",
		[]string{"CAS_COUNT_RD", "CAS_COUNT_WR"},
		[]string{"Memory bandwidth [MBytes/s]", "Memory data volume [GBytes]", "Memory read data volume [GBytes]", "Memory write data volume [GBytes]"}},
	{"MEM_DP",
		[]string{"CAS_COUNT_RD", "CAS_COUNT_WR", "FP_ARITH_INST_RETIRED_SCALAR_DOUBLE"},
		[]string{"DP [MFLOP/s]", "Memory bandwidth [MBytes/s]", "Memory data volume [GBytes]", "Memory read data volume [GBytes]", "Memory write data volume [GBytes]", "Operational intensity [FLOP/byte]"}},
	{"SPECI2M",
		[]string{"CAS_COUNT_RD", "CAS_COUNT_WR", "TOR_INSERTS_IA_ITOM"},
		[]string{"Memory bandwidth [MBytes/s]", "Memory data volume [GBytes]", "Memory read data volume [GBytes]", "Memory write data volume [GBytes]", "SpecI2M data volume [GBytes]", "SpecI2M evasion ratio"}},
}

// groupByName resolves a group name, case-insensitively.
func groupByName(name string) (group, bool) {
	i := slices.IndexFunc(groups, func(g group) bool { return strings.EqualFold(g.name, name) })
	if i < 0 {
		return group{}, false
	}
	return groups[i], true
}

// readings returns every event and metric a group can print, by name,
// for a run that took seconds. Events count lines, except the flops.
func readings(r bench.Result, seconds float64) map[string]float64 {
	traffic := r.V.Read + r.V.Write
	return map[string]float64{
		"CAS_COUNT_RD":                        r.V.Read / machine.LineBytes,
		"CAS_COUNT_WR":                        r.V.Write / machine.LineBytes,
		"TOR_INSERTS_IA_ITOM":                 r.V.ItoM / machine.LineBytes,
		"FP_ARITH_INST_RETIRED_SCALAR_DOUBLE": r.Flops(),
		"Memory read data volume [GBytes]":    r.V.Read * 1e-9,
		"Memory write data volume [GBytes]":   r.V.Write * 1e-9,
		"Memory data volume [GBytes]":         traffic * 1e-9,
		"Memory bandwidth [MBytes/s]":         per(traffic*1e-6, seconds),
		"DP [MFLOP/s]":                        per(r.Flops()*1e-6, seconds),
		"Operational intensity [FLOP/byte]":   per(r.Flops(), traffic),
		"SpecI2M data volume [GBytes]":        r.V.ItoM * 1e-9,
		"SpecI2M evasion ratio":               per(r.V.ItoM, r.V.Write),
	}
}

// per returns a/b, or 0 where b is not positive.
func per(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// print writes the group's event and metric tables for a run that took
// seconds, in the likwid-perfctr table style.
func (g group) print(w io.Writer, r bench.Result, seconds float64) {
	v := readings(r, seconds)
	rule := "+" + strings.Repeat("-", 58) + "+\n"
	fmt.Fprintf(w, "Region %s, Group %s\n%s", r.Kernel.Name, g.name, rule)
	fmt.Fprintf(w, "| %-40s | %13s |\n", "Event", "Count")
	for _, n := range g.events {
		fmt.Fprintf(w, "| %-40s | %13.0f |\n", n, v[n])
	}
	fmt.Fprintf(w, "%s| %-40s | %13s |\n", rule, "Metric", "Value")
	for _, n := range g.metrics {
		fmt.Fprintf(w, "| %-40s | %13.4f |\n", n, v[n])
	}
	fmt.Fprint(w, rule)
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
