// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes CSV files plus terminal tables. The
// full suite ("-exp all") runs the experiments concurrently on the
// sweep worker pool while keeping output and CSVs in deterministic
// order.
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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cloversim"
	"cloversim/internal/asciiplot"
	"cloversim/internal/csvout"
	"cloversim/internal/sweep"
)

// job is one experiment invocation; the full suite is a list of these.
type job struct {
	exp     string
	machine string
}

// output is a finished experiment: the CSV base name, table and any
// extra terminal rendering (profile listing, ASCII plots), or the
// experiment's error (isolated so the rest of the suite still lands).
type output struct {
	name  string
	table *csvout.Table
	extra string
	err   error
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all|profile|table1|scaling|balance|mpi|stores|copyvol|model|halo")
		machine = flag.String("machine", "icx", fmt.Sprintf("machine preset %v", cloversim.Machines()))
		out     = flag.String("out", "results", "output directory for CSV files")
		full    = flag.Bool("full", false, "paper-faithful y extents (much slower)")
		ranks   = flag.String("ranks", "", "comma-separated rank counts (default: all)")
		pfoff   = flag.Bool("pfoff", true, "include PF-off series in the halo experiment")
		plot    = flag.Bool("plot", false, "render ASCII charts for figure experiments")
		quiet   = flag.Bool("q", false, "suppress terminal tables")
		par     = flag.Int("workers", 3, "concurrent experiments for -exp all")
	)
	flag.Parse()

	opts := cloversim.Options{MachineName: *machine}
	if *full {
		opts.MaxRows = -1 // negative disables truncation downstream
	}
	if *ranks != "" {
		for _, s := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -ranks entry %q: %w", s, err))
			}
			opts.Ranks = append(opts.Ranks, n)
		}
	}

	jobs := []job{{*exp, *machine}}
	if *exp == "all" {
		jobs = jobs[:0]
		for _, name := range []string{"profile", "table1", "scaling", "balance", "mpi", "stores", "copyvol", "model", "halo"} {
			jobs = append(jobs, job{name, *machine})
		}
		// The SPR figures (9, 10, 11) on their machines.
		jobs = append(jobs, job{"stores", "spr8470+s"}, job{"stores", "spr8480"}, job{"halo", "spr8480"})
	}

	outs := make([]output, len(jobs))
	_ = sweep.ForEach(context.Background(), *par, len(jobs), func(i int) error {
		o := opts
		o.MachineName = jobs[i].machine
		res, err := runExperiment(jobs[i].exp, o, *pfoff, *plot)
		if err != nil {
			// Isolate per-experiment failures: the rest of the suite
			// still computes, saves and prints.
			res.err = fmt.Errorf("%s (machine %s): %w", jobs[i].exp, o.MachineName, err)
		}
		outs[i] = res
		return nil
	})

	failed := 0
	for _, r := range outs {
		if r.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "experiments:", r.err)
			continue
		}
		path := filepath.Join(*out, r.name+".csv")
		if err := r.table.SaveCSV(path); err != nil {
			fatal(err)
		}
		if *quiet {
			fmt.Printf("== %s -> %s\n", r.name, path)
		} else {
			fmt.Printf("== %s -> %s\n%s\n", r.name, path, r.table.Format())
		}
		// ASCII plots were asked for explicitly (-plot); print them
		// even under -q, like the pre-engine CLI did.
		if r.extra != "" && (!*quiet || *plot) {
			fmt.Println(r.extra)
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d experiments failed", failed, len(jobs)))
	}
}

// runExperiment executes one experiment and renders its extras.
func runExperiment(name string, opts cloversim.Options, pfoff, plot bool) (output, error) {
	switch name {
	case "profile":
		p, t, err := cloversim.Listing2Profile(opts)
		if err != nil {
			return output{}, err
		}
		return output{name: "listing2_profile", table: t, extra: p.Format(10)}, nil
	case "table1":
		_, t, err := cloversim.TableI(opts)
		return output{name: "table1", table: t}, err
	case "scaling":
		pts, t, err := cloversim.Figure2Scaling(opts)
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
		_, t, err := cloversim.Figure3CodeBalance(opts)
		return output{name: "fig3_code_balance", table: t}, err
	case "mpi":
		_, t, err := cloversim.Figure4MPIShare(opts)
		return output{name: "fig4_mpi_share", table: t}, err
	case "stores":
		pts, t, err := cloversim.FigureStoreRatio(opts)
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
		_, t, err := cloversim.Figure6CopyVolumes(opts)
		return output{name: "fig6_copy_volumes", table: t}, err
	case "model":
		_, t, err := cloversim.Figure7RefinedModel(opts)
		return output{name: "fig7_refined_model", table: t}, err
	case "halo":
		_, t, err := cloversim.FigureHaloCopy(opts, pfoff)
		return output{name: "halo_" + opts.MachineName, table: t}, err
	default:
		return output{}, fmt.Errorf("unknown experiment %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
