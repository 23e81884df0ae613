package sweepcli

import (
	"errors"
	"fmt"

	"cloversim/internal/search"
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
