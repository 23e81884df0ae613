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
// -machine), copyvol (Fig 6), model (Fig 7), halo (Figs 8/11).
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

// output is a finished experiment: the CSV base name, table and any
// extra terminal rendering (profile listing, ASCII plots).
type output struct {
	name  string
	table *csvout.Table
	extra string
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
		pfoff = fs.Bool("pfoff", true, "include PF-off series in the halo experiment")
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
		opts.MaxRows = -1 // negative disables truncation downstream
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

	jobs := []job{{*exp, *mach}}
	if *exp == "all" {
		jobs = jobs[:0]
		for _, name := range experiments {
			jobs = append(jobs, job{name, *mach})
		}
		// The SPR figures (9, 10, 11) on their machines.
		jobs = append(jobs, job{"stores", "spr8470+s"}, job{"stores", "spr8480"}, job{"halo", "spr8480"})
	} else if !slices.Contains(experiments, *exp) {
		return usage(fmt.Errorf("unknown experiment %q (have all|%s)", *exp, strings.Join(experiments, "|")))
	}
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
		r, err := runExperiment(ctx, j.exp, o, *pfoff, *plot)
		if err != nil {
			// Isolate per-experiment failures: the rest of the suite
			// still computes, saves and prints.
			failed++
			fmt.Fprintf(stderr, "experiments: %s (machine %s): %v\n", j.exp, j.machine, err)
			continue
		}
		path := filepath.Join(*out, r.name+".csv")
		if err := r.table.SaveCSV(path); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if *quiet {
			fmt.Fprintf(stdout, "== %s -> %s\n", r.name, path)
		} else {
			fmt.Fprintf(stdout, "== %s -> %s\n%s\n", r.name, path, r.table.Format())
		}
		// ASCII plots were asked for explicitly (-plot); print them
		// even under -q.
		if r.extra != "" && (!*quiet || *plot) {
			fmt.Fprintln(stdout, r.extra)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "experiments: %d of %d experiments failed\n", failed, len(jobs))
		return 1
	}
	return 0
}

// runExperiment executes one experiment and renders its extras.
func runExperiment(ctx context.Context, name string, opts cloversim.Options, pfoff, plot bool) (output, error) {
	switch name {
	case "profile":
		p, t, err := cloversim.Listing2Profile(ctx, opts)
		if err != nil {
			return output{}, err
		}
		return output{name: "listing2_profile", table: t, extra: p.Format(10)}, nil
	case "table1":
		_, t, err := cloversim.TableI(ctx, opts)
		return output{name: "table1", table: t}, err
	case "scaling":
		pts, t, err := cloversim.Figure2Scaling(ctx, opts)
		if err != nil {
			return output{}, err
		}
		o := output{name: "fig2_scaling", table: t}
		if plot {
			var x, y, bw []float64
			for _, p := range pts {
				x = append(x, float64(p.Ranks))
				y = append(y, p.Speedup)
				bw = append(bw, p.BandwidthGBs)
			}
			o.extra = asciiplot.Plot{
				Title: "Fig. 2: speedup vs ranks (note the prime dips)", XLabel: "ranks",
				Series: []asciiplot.Series{{Name: "speedup", X: x, Y: y}},
			}.Render() + "\n" + asciiplot.Plot{
				Title: "Fig. 2: memory bandwidth [GB/s]", XLabel: "ranks",
				Series: []asciiplot.Series{{Name: "bandwidth", X: x, Y: bw}},
			}.Render()
		}
		return o, nil
	case "balance":
		_, t, err := cloversim.Figure3CodeBalance(ctx, opts)
		return output{name: "fig3_code_balance", table: t}, err
	case "mpi":
		_, t, err := cloversim.Figure4MPIShare(ctx, opts)
		return output{name: "fig4_mpi_share", table: t}, err
	case "stores":
		pts, t, err := cloversim.FigureStoreRatio(ctx, opts)
		if err != nil {
			return output{}, err
		}
		o := output{name: "stores_" + opts.MachineName, table: t}
		if plot {
			var x, st1, nt1 []float64
			for _, p := range pts {
				x = append(x, float64(p.Cores))
				st1 = append(st1, p.Normal[0])
				nt1 = append(nt1, p.NT[0])
			}
			o.extra = asciiplot.Plot{
				Title: "Store ratio on " + opts.MachineName, XLabel: "cores",
				Series: []asciiplot.Series{
					{Name: "ST-1", X: x, Y: st1},
					{Name: "ST-NT-1", X: x, Y: nt1},
				},
			}.Render()
		}
		return o, nil
	case "copyvol":
		_, t, err := cloversim.Figure6CopyVolumes(ctx, opts)
		return output{name: "fig6_copy_volumes", table: t}, err
	case "model":
		_, t, err := cloversim.Figure7RefinedModel(ctx, opts)
		return output{name: "fig7_refined_model", table: t}, err
	case "halo":
		_, t, err := cloversim.FigureHaloCopy(ctx, opts, pfoff)
		return output{name: "halo_" + opts.MachineName, table: t}, err
	default:
		return output{}, fmt.Errorf("unknown experiment %q", name)
	}
}
