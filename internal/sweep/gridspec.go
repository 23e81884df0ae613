package sweep

import "fmt"

// GridSpec is cmd/sweep's names-based declaration of a campaign: axes
// carry machine/workload/mode/mesh values by name, and Resolve
// validates them and builds the Grid they declare. Empty axes mean the
// runner default, as in Grid.
type GridSpec struct {
	Machines  []string
	Workloads []string
	Modes     []string
	Ranks     []int
	Meshes    []string
	Threads   []int
	MaxRows   int
	Seed      uint64
}

// Resolve validates the spec and builds its Grid. The machine and
// workload axes live in registries this package cannot see
// (internal/workload imports sweep), so their validator is injected:
// cmd/sweep passes workload.ValidateAxes.
func (g GridSpec) Resolve(validateAxes func(machines, workloads []string) error) (Grid, error) {
	grid := Grid{
		Machines:  g.Machines,
		Workloads: g.Workloads,
		Ranks:     g.Ranks,
		Threads:   g.Threads,
		MaxRows:   g.MaxRows,
		Seed:      g.Seed,
	}
	if validateAxes != nil {
		if err := validateAxes(g.Machines, g.Workloads); err != nil {
			return Grid{}, err
		}
	}
	if err := checkValues(g.Ranks, g.Threads, g.MaxRows); err != nil {
		return Grid{}, err
	}
	var err error
	if grid.Modes, err = ModesByName(g.Modes); err != nil {
		return Grid{}, err
	}
	if grid.Meshes, err = ParseMeshes(g.Meshes); err != nil {
		return Grid{}, err
	}
	return grid, nil
}

// CheckValues rejects a scenario whose values no runner accepts: a
// mode that AllModes does not name, or whose knob fields differ from
// the named mode's (the zero Mode, an empty mode axis, is the runner
// default), and the numeric values checkValues rejects. Either would
// simulate one configuration under the key of another. ParseKey does
// not check them, so a store can still read back any record it holds;
// sweepd checks the keys a client sends with it.
func (s Scenario) CheckValues() error {
	if m, ok := ModeByName(s.Mode.Name); s.Mode != (Mode{}) && s.Mode != m {
		if !ok {
			return fmt.Errorf("unknown mode %q (have %v)", s.Mode.Name, modeNames)
		}
		return fmt.Errorf("mode %+v disagrees with the named mode %+v", s.Mode, m)
	}
	return checkValues([]int{s.Ranks}, []int{s.Threads}, s.MaxRows)
}

// checkValues rejects numeric axis values no runner accepts, which would
// otherwise simulate a default configuration under a key of their own: a
// negative rank or thread count (0 means full node) or a row truncation
// below -1 (full extent; 0 means the runner default).
func checkValues(ranks, threads []int, maxRows int) error {
	for _, r := range ranks {
		if r < 0 {
			return fmt.Errorf("ranks %d: want 0 (full node) or more", r)
		}
	}
	for _, t := range threads {
		if t < 0 {
			return fmt.Errorf("threads %d: want 0 (full node) or more", t)
		}
	}
	if maxRows < -1 {
		return fmt.Errorf("maxrows %d: want -1 (full extent), 0 (runner default) or more", maxRows)
	}
	return nil
}
