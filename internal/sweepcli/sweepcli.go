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
	"cloversim/internal/dispatch"
	"cloversim/internal/machine"
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
		maxRounds = fs.Int("max-rounds", 16, "adaptive: refinement wave bound")
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
		localWorkers = n
	} else {
		workerHosts = splitList(*workers)
		if len(workerHosts) == 0 {
			return usage(stderr, fmt.Errorf("bad -workers %q: want a count or a list of sweepd URLs", *workers))
		}
	}

	// The grid resolves through the same names-based GridSpec the
	// sweepd HTTP API decodes, so the two surfaces cannot drift.
	spec := sweep.GridSpec{
		Machines:  machine.Names(),
		Workloads: workload.Names(),
		Modes:     sweep.ModeNames(),
		MaxRows:   *maxRows,
		Seed:      *seed,
	}
	if *machines != "all" {
		spec.Machines = splitList(*machines)
	}
	if *workloads != "all" {
		spec.Workloads = splitList(*workloads)
	}
	if *modes != "all" {
		spec.Modes = splitList(*modes)
	}
	spec.Meshes = splitList(*mesh)
	var err error
	if spec.Ranks, err = intList(*ranks); err != nil {
		return usage(stderr, err)
	}
	if spec.Threads, err = intList(*threads); err != nil {
		return usage(stderr, err)
	}
	grid, err := spec.Resolve(workload.ValidateAxes)
	if err != nil {
		return usage(stderr, err)
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
		// this campaign's cold cells. The memoizer, store
		// probe/write-through and emitters are untouched — distributed
		// output is byte-identical to local.
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
		// Belt for the early-return paths below; the success path
		// Closes explicitly (Close is idempotent) so sync errors reach
		// the exit code.
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
	if *adaptive != "" || *target != "" {
		// Adaptive frontier search: the grid is a search space, not an
		// enumeration. Everything set up above — engine, memoizer,
		// store write-through, local or fleet backend — applies
		// unchanged; only which cells run is decided wave by wave.
		if *adaptive == "" {
			return usage(stderr, errors.New("-target requires -adaptive"))
		}
		if *target == "" {
			return usage(stderr, errors.New("-adaptive requires -target"))
		}
		code := runAdaptive(ctx, adaptiveRun{
			grid: grid, axis: *adaptive, target: *target,
			tol: *tol, maxRounds: *maxRounds,
			modesSet: *modes != "all",
			eng:      eng, store: st,
			out: *out, quiet: *quiet, liveProgress: *progress,
			workersDesc: workersDesc,
			stdout:      stdout, stderr: stderr,
		})
		return code
	}
	if !*quiet {
		fmt.Fprintf(stdout, "sweep: %d scenarios (%d machines x %d workloads x %d modes), %s\n",
			grid.Size(), len(grid.Machines), len(grid.Workloads), len(grid.Modes), workersDesc)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return runtimeErr(stderr, err)
	}

	// The hook fires once per scenario — warm hits, in-campaign
	// duplicates and never-started cells included — in completion
	// order. -q without -progress installs none.
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
	c := eng.Run(ctx, grid.Expand(), hook)
	if *progress {
		fmt.Fprintln(stderr) // terminate the carriage-returned line
	}

	csvPath := filepath.Join(*out, "campaign.csv")
	jsonPath := filepath.Join(*out, "campaign.json")
	if err := emitFile(csvPath, sweep.CSVEmitter{}.Emit, c); err != nil {
		return runtimeErr(stderr, err)
	}
	if err := emitFile(jsonPath, sweep.JSONEmitter{Indent: true}.Emit, c); err != nil {
		return runtimeErr(stderr, err)
	}

	if !*quiet {
		fmt.Fprintf(stdout, "\n%s\n", c.Table().Format())
	}
	if err := (sweep.SummaryEmitter{Metric: *plot}).Emit(stdout, c); err != nil {
		return runtimeErr(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n", csvPath, jsonPath)

	code := ExitOK
	if c.CacheErr != nil {
		// Results were computed and emitted, but the store did not
		// durably record them: a resumed campaign would re-simulate.
		// Scripts must see that.
		fmt.Fprintln(stderr, "sweep: store writes failed:", c.CacheErr)
		code = ExitRuntime
	}
	if st != nil {
		// Explicit Close: a failed sync (EIO/ENOSPC surfacing at
		// fsync) means the records are not durable, which breaks the
		// resumability contract just like a failed Put.
		if err := st.Close(); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			code = ExitRuntime
		}
	}
	if unstarted := c.Unstarted(); len(unstarted) > 0 {
		// The campaign was interrupted: completed cells were emitted
		// (and, with -store, persisted and fsynced by the Close above),
		// never-started cells carry ErrUnstarted. Genuine simulation
		// failures among the completed cells still get reported, but
		// the exit code stays ExitInterrupted unless durability broke
		// (code is already ExitRuntime then): "interrupted, partial
		// results persisted" is the stronger signal for scripts, which
		// re-run the campaign to finish it either way.
		completed := len(c.Results) - len(unstarted)
		fmt.Fprintf(stderr, "sweep: interrupted: %d of %d scenarios completed, %d not started\n",
			completed, len(c.Results), len(unstarted))
		for _, r := range c.Failed() {
			if !errors.Is(r.Err, sweep.ErrUnstarted) {
				fmt.Fprintf(stderr, "sweep: %s (%s): %v\n", r.Scenario.Label(), r.ID, r.Err)
			}
		}
		if code == ExitOK {
			code = ExitInterrupted
		}
		return code
	}
	// Error isolation means the campaign always completes and both
	// files are written — but scripts still need a failure signal:
	// any failed scenario makes the exit code non-zero.
	if err := c.Err(); err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		code = ExitRuntime
	}
	return code
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
