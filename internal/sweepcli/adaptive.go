package sweepcli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloversim/internal/search"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// adaptivePlan builds the search plan of an -adaptive invocation over
// the resolved grid from the -adaptive, -target, -tol and -max-rounds
// flag values; modesSet reports whether -modes was given. Every error
// is a usage error that names the flag at fault.
func adaptivePlan(grid sweep.Grid, axisFlag, targetFlag string, modesSet bool, tol, maxRounds int) (*search.Plan, error) {
	if axisFlag == "" {
		return nil, errors.New("-target requires -adaptive")
	}
	if targetFlag == "" {
		return nil, errors.New("-adaptive requires -target")
	}
	if tol < 1 {
		return nil, fmt.Errorf("-tol %d: want an axis gap of at least 1", tol)
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("-max-rounds %d: want at least 1 refinement wave", maxRounds)
	}
	axis, err := search.ParseAxis(axisFlag)
	if err != nil {
		return nil, fmt.Errorf("-adaptive: %w", err)
	}
	target, err := search.ParseTarget(targetFlag)
	if err != nil {
		return nil, fmt.Errorf("-target: %w", err)
	}
	if target.Kind == search.TargetDelta {
		// A delta target owns the mode axis, so an explicit -modes is a
		// usage error rather than a silent override.
		if modesSet {
			return nil, fmt.Errorf("a delta target supplies its own mode pair (%s/%s); drop -modes",
				target.ModeA.Name, target.ModeB.Name)
		}
		// The default grid carries every mode; the delta predicate owns
		// the axis instead.
		grid.Modes = nil
	}
	plan := &search.Plan{
		Grid:      grid,
		Axis:      axis,
		Target:    target,
		Tol:       tol,
		MaxRounds: maxRounds,
		Surrogate: workload.Analytic,
	}
	// With the axis and target parsed, Validate can only reject the
	// axis values: the -ranks, -threads or -mesh seeds.
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("-%s: %w", axis, err)
	}
	return plan, nil
}

// adaptiveRun carries the CLI context of one -adaptive invocation into
// runAdaptive: the fully wired engine (backend and store included),
// the emit targets and the output flags.
type adaptiveRun struct {
	eng          *sweep.Engine
	store        *store.Store
	out          string
	quiet        bool
	liveProgress bool
	workersDesc  string
	stdout       io.Writer
	stderr       io.Writer
}

// runAdaptive executes the adaptive frontier-search campaign plan and
// writes frontier.csv and frontier.json into -out. The exit-code
// contract is the campaign one: probe or durability failures 1, an
// interrupted search with its partial frontier emitted 3. Usage errors
// (2) are adaptivePlan's, caught before the engine exists.
func runAdaptive(ctx context.Context, plan *search.Plan, a adaptiveRun) int {
	grid := plan.Grid
	if !a.quiet {
		tracks := len(grid.Machines) * len(grid.Workloads)
		if n := len(grid.Modes); n > 0 {
			tracks *= n
		}
		fmt.Fprintf(a.stdout, "sweep: adaptive %s search, target %s, %s\n", plan.Axis, plan.Target, a.workersDesc)
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
	if err := emitFile(jsonPath, search.JSONEmitter{}.Emit, outcome); err != nil {
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
