// Package sweepcli is the cmd/sweep program as a library: flag
// parsing, grid construction, engine execution, emitter output and
// exit-code policy, runnable in-process against injected streams and
// runners so the end-to-end test harness can golden-compare real CLI
// behavior (and count simulations) without spawning a process.
package sweepcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"cloversim"
	"cloversim/internal/csvout"
	"cloversim/internal/dispatch"
	"cloversim/internal/machine"
	"cloversim/internal/search"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
	"cloversim/internal/workload"
)

// Exit codes. Scenario failures and I/O failures are runtime errors
// (1); unparseable flags and unknown axis values are usage errors (2);
// an interrupted campaign (SIGINT/SIGTERM or a cancelled context)
// whose completed cells were emitted — and persisted, when -store is
// set — exits 3 so scripts can tell "partial but resumable" apart
// from "failed". A durability failure (store write or sync) is always
// a runtime error, even when the run was also interrupted: the
// partial-results-persisted promise of exit 3 would be a lie.
const (
	ExitOK          = 0
	ExitRuntime     = 1
	ExitUsage       = 2
	ExitInterrupted = 3
)

// Main runs the sweep CLI against the production runner and physics,
// with SIGINT/SIGTERM cancelling the campaign: running scenarios
// complete and persist, unstarted ones are skipped, the partial
// campaign is emitted, and the exit code is ExitInterrupted.
//
//lint:allow ctxflow CLI root: mints the process signal context; its goroutine is the signal-unregister watcher bounded by it
func Main(argv []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// Once the first signal has cancelled the campaign, unregister
		// the handler: a second Ctrl-C gets default die-now behavior
		// instead of being swallowed while an uninterruptible in-flight
		// scenario finishes.
		<-ctx.Done()
		stop()
	}()
	return MainWithRunnerContext(ctx, argv, stdout, stderr, cloversim.RunScenarioContext)
}

// MainWithRunnerContext is the CLI core with an injectable scenario
// runner — the seam the e2e harness uses to prove a warm store
// performs zero simulation work. Campaign execution runs under ctx, so
// cancelling it interrupts the sweep (exit code ExitInterrupted,
// partial results emitted and persisted). Main wires ctx to
// SIGINT/SIGTERM; tests drive cancellation directly.
func MainWithRunnerContext(ctx context.Context, argv []string, stdout, stderr io.Writer, runner sweep.Runner) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machines  = fs.String("machines", "all", "comma-separated machine presets, or all of "+strings.Join(machine.Names(), ","))
		workloads = fs.String("workloads", "all", "comma-separated workloads, or all of "+strings.Join(workload.Names(), ","))
		modes     = fs.String("modes", "all", "comma-separated evasion modes, or all of "+strings.Join(sweep.ModeNames(), ","))
		ranks     = fs.String("ranks", "", "comma-separated rank counts (default: full node)")
		threads   = fs.String("threads", "", "comma-separated microbenchmark core counts (default: full node)")
		mesh      = fs.String("mesh", "", "comma-separated problem sizes WxH (default: 15360x15360)")
		maxRows   = fs.Int("maxrows", 0, "y-extent truncation (0 = fast default 32, -1 = paper-faithful full extent)")
		seed      = fs.Uint64("seed", 0, "deterministic PRNG seed (0 = default)")
		workers   = fs.String("workers", "0", "local worker count (0 = GOMAXPROCS), or a comma-separated list of sweepd worker URLs to shard the campaign across a fleet")
		out       = fs.String("out", "results/sweep", "output directory for campaign.csv and campaign.json")
		storeDir  = fs.String("store", "", "persistent result store directory; already-simulated scenarios are served from it and fresh results are recorded, making campaigns resumable")
		plot      = fs.String("plot", "store_ratio", "metric for the ASCII summary chart (empty = first metric)")
		quiet     = fs.Bool("q", false, "suppress per-scenario progress and the result table")
		progress  = fs.Bool("progress", false, "live completion counter on stderr, updated as each scenario finishes (combines with -q for quiet-but-visible campaigns)")
		compact   = fs.Bool("store-compact", false, "compact the -store directory (merge all segments into one, dropping stale and corrupt lines) and exit without running a campaign; requires exclusive ownership of the store")
		adaptive  = fs.String("adaptive", "", "adaptive frontier search along this numeric axis (ranks, threads or mesh) instead of the exhaustive cross product; needs -target and at least two axis values as the bracketing seeds")
		target    = fs.String("target", "", "frontier predicate for -adaptive: delta:<metric>:<modeA>/<modeB>, lt:<metric>:<value>, gt:<metric>:<value>, or model:<metric>:<analytic-metric>:<reltol>")
		tol       = fs.Int("tol", 1, "adaptive: stop refining an interval once its axis gap is at most this (mesh: larger componentwise distance)")
		maxRounds = fs.Int("max-rounds", 16, "adaptive: wave bound, seed wave included (16 bisect a seed gap of up to 2^15 to -tol 1)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return ExitOK
		}
		return ExitUsage
	}
	if *compact {
		// Maintenance mode: compact and exit. No campaign runs, so none
		// of the grid flags apply; misuse without a store is a usage
		// error, a failed compaction a runtime one.
		if *storeDir == "" {
			return usage(stderr, errors.New("-store-compact requires -store"))
		}
		return runCompact(stdout, stderr, *storeDir)
	}

	// -workers is overloaded: an integer sizes the local pool, anything
	// else is a fleet of sweepd worker URLs for the remote backend.
	var localWorkers int
	var workerHosts []string
	if n, err := strconv.Atoi(strings.TrimSpace(*workers)); err == nil {
		if n < 0 {
			return usage(stderr, fmt.Errorf("bad -workers %d: want 0 (GOMAXPROCS) or more", n))
		}
		localWorkers = n
	} else {
		workerHosts = splitList(*workers)
		if len(workerHosts) == 0 {
			return usage(stderr, fmt.Errorf("bad -workers %q: want a count or a list of sweepd URLs", *workers))
		}
	}

	// The flags declare the grid by name; each axis is validated as it
	// resolves, before the engine, the fleet or the store exist.
	grid := sweep.Grid{Machines: machine.Names(), Workloads: workload.Names(), MaxRows: *maxRows, Seed: *seed}
	if *machines != "all" {
		grid.Machines = splitList(*machines)
	}
	if *workloads != "all" {
		grid.Workloads = splitList(*workloads)
	}
	modeNames := sweep.ModeNames()
	if *modes != "all" {
		modeNames = splitList(*modes)
	}
	var err error
	if grid.Ranks, err = intList(*ranks); err != nil {
		return usage(stderr, err)
	}
	if grid.Threads, err = intList(*threads); err != nil {
		return usage(stderr, err)
	}
	if err = workload.ValidateAxes(grid.Machines, grid.Workloads); err == nil {
		err = grid.Check()
	}
	if err == nil {
		grid.Modes, err = sweep.ModesByName(modeNames)
	}
	if err == nil {
		grid.Meshes, err = sweep.ParseMeshes(splitList(*mesh))
	}
	if err != nil {
		return usage(stderr, err)
	}
	// Adaptive frontier search: the grid is a search space, not an
	// enumeration. Its flags are checked here, before the engine, the
	// fleet or the store exist, so a usage error has no side effects.
	var plan *search.Plan
	if *adaptive != "" || *target != "" {
		if plan, err = adaptivePlan(grid, *adaptive, *target, *modes != "all", *tol, *maxRounds); err != nil {
			return usage(stderr, err)
		}
	}

	eng := sweep.NewEngine(localWorkers, runner)
	// One loop memo per invocation, adaptive waves included: cells of
	// this campaign share loop replays, the next invocation starts empty.
	ctx = trace.WithMemo(ctx, trace.NewMemo())
	// workersDesc names the execution backend in the startup banner.
	workersDesc := func() string {
		if nw := localWorkers; nw > 0 {
			return fmt.Sprintf("%d workers", nw)
		}
		return fmt.Sprintf("%d workers", runtime.GOMAXPROCS(0))
	}()
	if len(workerHosts) > 0 {
		// Remote backend: the fleet replaces the local pool and shards
		// this campaign's cold cells. The store probe/write-through
		// and emitters are untouched — distributed output is
		// byte-identical to local.
		fleet, err := dispatch.New(ctx, workerHosts, cloversim.PhysicsVersion)
		if err != nil {
			return runtimeErr(stderr, err)
		}
		eng.Backend = fleet
		workersDesc = fmt.Sprintf("fleet of %d workers (capacity %d)", fleet.Size(), fleet.Capacity())
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, cloversim.PhysicsVersion)
		if err != nil {
			return runtimeErr(stderr, err)
		}
		// Belt for the early-return paths below; finish Closes
		// explicitly (Close is idempotent) so sync errors reach the
		// exit code.
		defer st.Close()
		if stats := st.Stats(); stats.Corrupt > 0 || stats.Conflicts > 0 {
			// Corruption and conflicting records (one scenario stored
			// with different bits: a determinism violation) are
			// survivable but worth a trace on stderr (stdout stays
			// byte-identical between cold and warm runs). Benign
			// duplicates are NOT damage: concurrent writers converging
			// on the same scenario is the store's documented behavior.
			fmt.Fprintf(stderr, "sweep: store %s recovered with damage: %s\n", *storeDir, stats)
		}
		if !*quiet {
			fmt.Fprintf(stdout, "store: %s holds %d results under physics %s\n",
				*storeDir, st.Len(), cloversim.PhysicsVersion)
		}
		eng.Cache = st
	}
	// Both forms write into -out: a bad directory fails before anything
	// simulates.
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return runtimeErr(stderr, err)
	}

	// The hook fires once per scenario — warm hits, in-campaign
	// duplicates and never-started cells included — in completion
	// order. A search runs one engine campaign per wave, so its counts
	// restart each wave. -q without -progress installs none.
	var hook func(done, total int, r sweep.Result)
	if !*quiet || *progress {
		failed := 0
		hook = func(done, total int, r sweep.Result) {
			if !*quiet {
				fmt.Fprintln(stdout, sweep.ProgressLine(done, total, r))
			}
			if *progress {
				// One carriage-returned line on stderr: stdout keeps its
				// byte-stable contract, and -q campaigns stay observable.
				if r.Err != nil && !errors.Is(r.Err, sweep.ErrUnstarted) {
					failed++
				}
				fmt.Fprintf(stderr, "\rsweep: %d/%d scenarios complete (%d failed)", done, total, failed)
			}
		}
	}
	// Everything set up above — engine, loop memo, store probe and
	// write-through, local or fleet backend, hook — applies to both
	// forms; a search only decides wave by wave which cells run.
	var end ending
	if plan == nil {
		if !*quiet {
			fmt.Fprintf(stdout, "sweep: %d scenarios (%d machines x %d workloads x %d modes), %s\n",
				grid.Size(), len(grid.Machines), len(grid.Workloads), len(grid.Modes), workersDesc)
		}
		c := eng.Run(ctx, grid.Expand(), hook)
		err = emit(stdout, *out, "campaign", *quiet, c, sweep.CSVEmitter{}.Emit, sweep.JSONEmitter{}.Emit,
			sweep.Campaign.Table, sweep.SummaryEmitter{Metric: *plot}.Emit)
		end = campaignEnding(c)
	} else {
		if !*quiet {
			g := plan.Grid
			tracks := len(g.Machines) * len(g.Workloads) * max(len(g.Modes), 1)
			fmt.Fprintf(stdout, "sweep: adaptive %s search, target %s, %s\n", plan.Axis, plan.Target, workersDesc)
			fmt.Fprintf(stdout, "sweep: %d tracks (%d machines x %d workloads), tol %d, max %d rounds\n",
				tracks, len(g.Machines), len(g.Workloads), plan.Tol, plan.MaxRounds)
		}
		o, searchErr := plan.Run(ctx, eng, hook)
		if o == nil {
			return runtimeErr(stderr, searchErr)
		}
		err = emit(stdout, *out, "frontier", *quiet, o, search.CSVEmitter{}.Emit, search.JSONEmitter{}.Emit,
			(*search.Outcome).Table, summaryLine)
		end = ending{cacheErr: o.CacheErr, failed: searchErr}
		if o.Interrupted {
			end.interrupted = fmt.Sprintf("%d cells visited over %d rounds; partial frontier emitted", o.Visited, o.Rounds)
		}
	}
	if *progress {
		fmt.Fprintln(stderr) // terminate the carriage-returned line
	}
	if err != nil {
		return runtimeErr(stderr, err)
	}
	return finish(stderr, st, end)
}

// emit is the output step both forms share: it writes base.csv and
// base.json into dir, then prints the table (unless quiet), the
// summary and the wrote line.
func emit[T any](stdout io.Writer, dir, base string, quiet bool, v T,
	csv, json func(io.Writer, T) error, table func(T) *csvout.Table, summary func(io.Writer, T) error) error {
	csvPath := filepath.Join(dir, base+".csv")
	jsonPath := filepath.Join(dir, base+".json")
	if err := emitFile(csvPath, csv, v); err != nil {
		return err
	}
	if err := emitFile(jsonPath, json, v); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(stdout, "\n%s\n", table(v).Format())
	}
	if err := summary(stdout, v); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "wrote %s and %s\n", csvPath, jsonPath)
	return err
}

// summaryLine prints a search's one-line digest.
func summaryLine(w io.Writer, o *search.Outcome) error {
	_, err := fmt.Fprintln(w, o.Summary())
	return err
}

// ending is how a run of either form ended, the input of finish.
type ending struct {
	cacheErr    error  // store writes that failed during the run
	failed      error  // scenario or probe failures
	interrupted string // what a cancelled run completed; empty if it was not
}

// campaignEnding reads an exhaustive campaign's ending. An interrupted
// campaign lists only its genuine failures: never-started cells are
// what the interrupt message counts.
func campaignEnding(c sweep.Campaign) ending {
	end := ending{cacheErr: c.CacheErr, failed: c.Err()}
	unstarted := len(c.Unstarted())
	if unstarted == 0 {
		return end
	}
	end.interrupted = fmt.Sprintf("%d of %d scenarios completed, %d not started",
		len(c.Results)-unstarted, len(c.Results), unstarted)
	end.failed = nil
	for _, r := range c.Failed() {
		if !errors.Is(r.Err, sweep.ErrUnstarted) {
			end.failed = errors.Join(end.failed, fmt.Errorf("%s (%s): %w", r.Scenario.Label(), r.ID, r.Err))
		}
	}
	return end
}

// finish closes the store and applies the exit-code contract to a run
// of either form, after its output was written:
//   - a durability failure (a store write, or the sync at Close) exits
//     ExitRuntime, even when the run was also interrupted: the
//     partial-results-persisted promise of ExitInterrupted would be a
//     lie, and a resumed run would re-simulate;
//   - an interrupted run otherwise exits ExitInterrupted, whatever
//     failed: "partial results persisted" is the stronger signal for
//     scripts, which re-run to finish either way;
//   - a completed run with a failure exits ExitRuntime: error isolation
//     completes the run and writes both files, but scripts still need
//     a failure signal.
func finish(stderr io.Writer, st *store.Store, end ending) int {
	durable := true
	if end.cacheErr != nil {
		fmt.Fprintln(stderr, "sweep: store writes failed:", end.cacheErr)
		durable = false
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			durable = false
		}
	}
	if end.interrupted != "" {
		fmt.Fprintln(stderr, "sweep: interrupted:", end.interrupted)
	}
	if end.failed != nil {
		for _, line := range strings.Split(end.failed.Error(), "\n") {
			fmt.Fprintln(stderr, "sweep:", line)
		}
	}
	switch {
	case !durable:
		return ExitRuntime
	case end.interrupted != "":
		return ExitInterrupted
	case end.failed != nil:
		return ExitRuntime
	}
	return ExitOK
}

// runCompact is the -store-compact maintenance mode: open the store,
// merge its segments, report, exit. The caller must own the store
// directory exclusively — see store.Compact's protocol doc.
func runCompact(stdout, stderr io.Writer, dir string) int {
	st, err := store.Open(dir, cloversim.PhysicsVersion)
	if err != nil {
		return runtimeErr(stderr, err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Corrupt > 0 || stats.Conflicts > 0 {
		fmt.Fprintf(stderr, "sweep: store %s recovered with damage: %s\n", dir, stats)
	}
	cs, err := st.Compact()
	if err != nil {
		return runtimeErr(stderr, err)
	}
	if err := st.Close(); err != nil {
		return runtimeErr(stderr, err)
	}
	fmt.Fprintf(stdout, "store %s: %s\n", dir, cs)
	return ExitOK
}

func usage(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "sweep:", err)
	return ExitUsage
}

func runtimeErr(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "sweep:", err)
	return ExitRuntime
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// emitFile writes one artifact: v rendered by emit into a new file at
// path.
func emitFile[T any](path string, emit func(io.Writer, T) error, v T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := emit(f, v); err != nil {
		return err
	}
	return f.Close()
}
