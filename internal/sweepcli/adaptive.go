package sweepcli

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloversim/internal/search"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// adaptiveRun carries the CLI context of one -adaptive invocation into
// runAdaptive: the resolved grid, the fully wired engine (backend and
// tier-2 store included), the emit targets and the flag values the
// adaptive path interprets itself.
type adaptiveRun struct {
	grid      sweep.Grid
	axis      string
	target    string
	tol       int
	maxRounds int
	// modesSet reports whether -modes was given explicitly; a delta
	// target owns the mode axis, so combining the two is a usage error
	// rather than a silent override.
	modesSet     bool
	eng          *sweep.Engine
	store        *store.Store
	out          string
	quiet        bool
	liveProgress bool
	workersDesc  string
	stdout       io.Writer
	stderr       io.Writer
}

// runAdaptive executes an adaptive frontier-search campaign and writes
// frontier.csv and frontier.json into -out. The exit-code contract is
// the campaign one: usage errors 2, probe or durability failures 1,
// an interrupted search with its partial frontier emitted 3.
func runAdaptive(ctx context.Context, a adaptiveRun) int {
	axis, err := search.ParseAxis(a.axis)
	if err != nil {
		return usage(a.stderr, err)
	}
	target, err := search.ParseTarget(a.target)
	if err != nil {
		return usage(a.stderr, err)
	}
	grid := a.grid
	if target.Kind == search.TargetDelta {
		if a.modesSet {
			return usage(a.stderr, fmt.Errorf("a delta target supplies its own mode pair (%s/%s); drop -modes",
				target.ModeA.Name, target.ModeB.Name))
		}
		// The default grid carries every mode; the delta predicate owns
		// the axis instead.
		grid.Modes = nil
	}
	plan := &search.Plan{
		Grid:      grid,
		Axis:      axis,
		Target:    target,
		Tol:       a.tol,
		MaxRounds: a.maxRounds,
		Surrogate: workload.Analytic,
	}
	if err := plan.Validate(); err != nil {
		return usage(a.stderr, err)
	}

	if !a.quiet {
		tracks := len(grid.Machines) * len(grid.Workloads)
		if n := len(grid.Modes); n > 0 {
			tracks *= n
		}
		fmt.Fprintf(a.stdout, "sweep: adaptive %s search, target %s, %s\n", axis, target, a.workersDesc)
		fmt.Fprintf(a.stdout, "sweep: %d tracks (%d machines x %d workloads), tol %d, max %d rounds\n",
			tracks, len(grid.Machines), len(grid.Workloads), plan.Tol, plan.MaxRounds)
	}
	var hook func(done, total int, r sweep.Result)
	if !a.quiet || a.liveProgress {
		hook = func(done, total int, r sweep.Result) {
			if !a.quiet {
				fmt.Fprintln(a.stdout, sweep.ProgressLine(done, total, r))
			}
			if a.liveProgress {
				// The live counter resets per wave: each refinement
				// round is its own engine campaign.
				fmt.Fprintf(a.stderr, "\rsweep: wave: %d/%d probes complete", done, total)
			}
		}
	}

	outcome, searchErr := plan.Run(ctx, a.eng, hook)
	if a.liveProgress {
		fmt.Fprintln(a.stderr)
	}
	if outcome == nil {
		return runtimeErr(a.stderr, searchErr)
	}

	if err := os.MkdirAll(a.out, 0o755); err != nil {
		return runtimeErr(a.stderr, err)
	}
	csvPath := filepath.Join(a.out, "frontier.csv")
	jsonPath := filepath.Join(a.out, "frontier.json")
	if err := emitFile(csvPath, search.CSVEmitter{}.Emit, outcome); err != nil {
		return runtimeErr(a.stderr, err)
	}
	if err := emitFile(jsonPath, search.JSONEmitter{Indent: true}.Emit, outcome); err != nil {
		return runtimeErr(a.stderr, err)
	}
	if !a.quiet {
		fmt.Fprintf(a.stdout, "\n%s\n", outcome.Table().Format())
	}
	fmt.Fprintf(a.stdout, "%s\n", outcome.Summary())
	fmt.Fprintf(a.stdout, "wrote %s and %s\n", csvPath, jsonPath)

	code := ExitOK
	if outcome.CacheErr != nil {
		fmt.Fprintln(a.stderr, "sweep: store writes failed:", outcome.CacheErr)
		code = ExitRuntime
	}
	if a.store != nil {
		if err := a.store.Close(); err != nil {
			fmt.Fprintln(a.stderr, "sweep:", err)
			code = ExitRuntime
		}
	}
	if searchErr != nil {
		fmt.Fprintln(a.stderr, "sweep:", searchErr)
		code = ExitRuntime
	}
	if outcome.Interrupted {
		fmt.Fprintf(a.stderr, "sweep: interrupted: %d cells visited over %d rounds; partial frontier emitted\n",
			outcome.Visited, outcome.Rounds)
		if code == ExitOK {
			code = ExitInterrupted
		}
	}
	return code
}
