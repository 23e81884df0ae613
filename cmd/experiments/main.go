// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes CSV files plus terminal tables. It runs
// its experiments one after another on one loop replay memo for the
// whole invocation, so a loop that several figures replay (Figs. 2, 3,
// 4, Table I and Listing 2 share most of theirs) is simulated once, and
// it saves and prints each experiment as it finishes. Within an
// experiment, the points fan out over GOMAXPROCS workers; there is no
// worker-count flag.
//
// Usage:
//
//	experiments -exp all -out results/
//	experiments -exp table1
//	experiments -exp stores -machine spr8480
//	experiments -exp scaling -full       # paper-faithful y extents (slow)
//
// Experiments: profile (Listing 2), table1 (Table I), scaling (Fig 2),
// balance (Fig 3), mpi (Fig 4), stores (Figs 5/9/10 depending on
// -machine), copyvol (Fig 6), model (Fig 7), halo (Figs 8/11, with the
// prefetchers on and off). -exp all writes the 12 CSVs committed under
// testdata/figures.
//
// An unknown -exp or -machine, or a -ranks entry outside 1..cores of a
// machine the run uses, exits 2 before anything is simulated. A failed
// experiment does not stop the others; the command then exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"cloversim"
	"cloversim/internal/asciiplot"
	"cloversim/internal/csvout"
	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// experiments lists every experiment in the order -exp all runs them.
var experiments = []string{"profile", "table1", "scaling", "balance", "mpi", "stores", "copyvol", "model", "halo"}

// job is one experiment invocation; the full suite is a list of these.
type job struct {
	exp     string
	machine string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the experiments and returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment: all|"+strings.Join(experiments, "|"))
		mach  = fs.String("machine", "icx", fmt.Sprintf("machine preset %v", cloversim.Machines()))
		out   = fs.String("out", "results", "output directory for CSV files")
		full  = fs.Bool("full", false, "paper-faithful y extents (much slower)")
		ranks = fs.String("ranks", "", "comma-separated rank counts (default: all)")
		plot  = fs.Bool("plot", false, "render ASCII charts for figure experiments")
		quiet = fs.Bool("q", false, "suppress terminal tables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	opts := cloversim.Options{MachineName: *mach}
	if *full {
		opts.MaxRows = -1 // the full extent (cloverleaf.RowLimit)
	}
	if *ranks != "" {
		for _, s := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return usage(fmt.Errorf("bad -ranks entry %q: %w", s, err))
			}
			opts.Ranks = append(opts.Ranks, n)
		}
	}

	if *exp != "all" && !slices.Contains(experiments, *exp) {
		return usage(fmt.Errorf("unknown experiment %q (have all|%s)", *exp, strings.Join(experiments, "|")))
	}
	jobs := jobList(*exp, *mach)
	for _, j := range jobs {
		spec, ok := machine.ByName(j.machine)
		if !ok {
			return usage(fmt.Errorf("unknown machine %q (have %v)", j.machine, cloversim.Machines()))
		}
		for _, n := range opts.Ranks {
			if n < 1 || n > spec.Cores() {
				return usage(fmt.Errorf("-ranks entry %d outside 1..%d of %s", n, spec.Cores(), j.machine))
			}
		}
	}

	ctx := trace.WithMemo(context.Background(), trace.NewMemo())
	failed := 0
	for _, j := range jobs {
		o := opts
		o.MachineName = j.machine
		base, table, err := runExperiment(ctx, j.exp, o)
		var extra string
		if err == nil && *plot {
			extra, err = charts(j.exp, j.machine, table)
		}
		if err != nil {
			// Isolate per-experiment failures: the rest of the suite
			// still computes, saves and prints.
			failed++
			fmt.Fprintf(stderr, "experiments: %s (machine %s): %v\n", j.exp, j.machine, err)
			continue
		}
		path := filepath.Join(*out, base+".csv")
		if err := table.SaveCSV(path); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if *quiet {
			fmt.Fprintf(stdout, "== %s -> %s\n", base, path)
		} else {
			fmt.Fprintf(stdout, "== %s -> %s\n%s\n", base, path, table.Format())
		}
		// ASCII plots were asked for explicitly (-plot); print them
		// even under -q.
		if extra != "" {
			fmt.Fprintln(stdout, extra)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "experiments: %d of %d experiments failed\n", failed, len(jobs))
		return 1
	}
	return 0
}

// jobList returns the jobs of one invocation: the experiment on the
// machine, or for all, the nine experiments on the machine and then the
// SPR figures (9, 10, 11) on their machines, each job once.
func jobList(exp, mach string) []job {
	if exp != "all" {
		return []job{{exp, mach}}
	}
	var jobs []job
	for _, name := range experiments {
		jobs = append(jobs, job{name, mach})
	}
	for _, j := range []job{{"stores", "spr8470+s"}, {"stores", "spr8480"}, {"halo", "spr8480"}} {
		if !slices.Contains(jobs, j) {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// runExperiment executes one experiment and returns its CSV base name
// and table.
func runExperiment(ctx context.Context, name string, opts cloversim.Options) (string, *csvout.Table, error) {
	switch name {
	case "profile":
		t, err := cloversim.Listing2Profile(ctx, opts)
		return "listing2_profile", t, err
	case "table1":
		t, err := cloversim.TableI(ctx, opts)
		return "table1", t, err
	case "scaling":
		t, err := cloversim.Figure2Scaling(ctx, opts)
		return "fig2_scaling", t, err
	case "balance":
		t, err := cloversim.Figure3CodeBalance(ctx, opts)
		return "fig3_code_balance", t, err
	case "mpi":
		t, err := cloversim.Figure4MPIShare(ctx, opts)
		return "fig4_mpi_share", t, err
	case "stores":
		t, err := cloversim.FigureStoreRatio(ctx, opts)
		return "stores_" + opts.MachineName, t, err
	case "copyvol":
		t, err := cloversim.Figure6CopyVolumes(ctx, opts)
		return "fig6_copy_volumes", t, err
	case "model":
		t, err := cloversim.Figure7RefinedModel(ctx, opts)
		return "fig7_refined_model", t, err
	case "halo":
		t, err := cloversim.FigureHaloCopy(ctx, opts)
		return "halo_" + opts.MachineName, t, err
	default:
		return "", nil, fmt.Errorf("unknown experiment %q", name)
	}
}

// charts renders the ASCII charts of an experiment's table: Fig. 2's
// speedup and bandwidth, and a store figure's ST-1 and ST-NT-1 series.
// Other experiments have none.
func charts(exp, machineName string, t *csvout.Table) (string, error) {
	var names []string
	switch exp {
	case "scaling":
		names = []string{"ranks", "speedup", "bandwidth_gbs"}
	case "stores":
		names = []string{"cores", "st1", "st_nt1"}
	default:
		return "", nil
	}
	c := make([][]float64, len(names))
	for i, name := range names {
		var err error
		if c[i], err = t.Floats(name); err != nil {
			return "", err
		}
	}
	if exp == "scaling" {
		return asciiplot.Plot{
			Title: "Fig. 2: speedup vs ranks (note the prime dips)", XLabel: "ranks",
			Series: []asciiplot.Series{{Name: "speedup", X: c[0], Y: c[1]}},
		}.Render() + "\n" + asciiplot.Plot{
			Title: "Fig. 2: memory bandwidth [GB/s]", XLabel: "ranks",
			Series: []asciiplot.Series{{Name: "bandwidth", X: c[0], Y: c[2]}},
		}.Render(), nil
	}
	return asciiplot.Plot{
		Title: "Store ratio on " + machineName, XLabel: "cores",
		Series: []asciiplot.Series{
			{Name: "ST-1", X: c[0], Y: c[1]},
			{Name: "ST-NT-1", X: c[0], Y: c[2]},
		},
	}.Render(), nil
}
