package sweep

import "fmt"

// GridSpec is the names-based declaration of a campaign shared by
// cmd/sweep's flags and sweepd's POST /v1/expand JSON body: axes carry
// machine/workload/mode/mesh values by name, and Resolve validates and
// expands them through the same helpers on both surfaces, so the CLI
// and the HTTP API accept identical grids (satellite of the backend
// refactor: the two used to validate independently).
//
// A spec declares work in exactly one of two forms:
//
//   - Axis form: the cross product of the axis fields (empty axes mean
//     the runner default, as in Grid).
//   - Explicit form: Scenarios lists canonical scenario key strings
//     (Scenario.Key), the dispatch protocol's way of handing a worker
//     cells it has never seen. No axis field may be set alongside.
type GridSpec struct {
	Machines  []string `json:"machines,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Modes     []string `json:"modes,omitempty"`
	Ranks     []int    `json:"ranks,omitempty"`
	Meshes    []string `json:"meshes,omitempty"`
	Threads   []int    `json:"threads,omitempty"`
	MaxRows   int      `json:"maxrows,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	// Scenarios, when non-empty, selects the explicit form: canonical
	// scenario keys to execute verbatim. Mutually exclusive with every
	// axis field.
	Scenarios []string `json:"scenarios,omitempty"`
}

// IsExplicit reports whether the spec is in explicit-scenario form.
func (g GridSpec) IsExplicit() bool { return len(g.Scenarios) > 0 }

// axesSet reports whether any axis field carries a value.
func (g GridSpec) axesSet() bool {
	return len(g.Machines)+len(g.Workloads)+len(g.Modes)+len(g.Ranks)+
		len(g.Meshes)+len(g.Threads) > 0 || g.MaxRows != 0 || g.Seed != 0
}

// Resolve validates the axis form and expands it into a Grid. The
// machine and workload axes live in registries this package cannot see
// (internal/workload imports sweep), so their validator is injected —
// both the CLI and sweepd pass workload.ValidateAxes. An explicit-form
// spec does not resolve to a grid; use Explicit.
func (g GridSpec) Resolve(validateAxes func(machines, workloads []string) error) (Grid, error) {
	if g.IsExplicit() {
		return Grid{}, fmt.Errorf("sweep: spec lists explicit scenarios; it does not expand as a grid")
	}
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

// ExplicitSpec builds the explicit-scenario form of a spec from
// resolved scenarios — the inverse of Explicit. The fleet client hands
// a worker its cells through it (sweepd.Client.ExecuteScenarios):
// every Scenario.Key, including refined numeric axis values no preset
// list contains, parses back to an identical scenario.
func ExplicitSpec(scenarios []Scenario) GridSpec {
	keys := make([]string, len(scenarios))
	for i, s := range scenarios {
		keys[i] = s.Key()
	}
	return GridSpec{Scenarios: keys}
}

// Explicit parses the explicit form back into scenarios, rejecting
// malformed keys, out-of-range numbers (see checkValues) and any axis
// field set alongside (a spec that mixes the two forms is ambiguous, so
// it is an error, not a merge).
func (g GridSpec) Explicit() ([]Scenario, error) {
	if !g.IsExplicit() {
		return nil, fmt.Errorf("sweep: spec lists no explicit scenarios")
	}
	if g.axesSet() {
		return nil, fmt.Errorf("sweep: explicit scenarios cannot be combined with grid axes")
	}
	out := make([]Scenario, 0, len(g.Scenarios))
	for i, key := range g.Scenarios {
		s, err := ParseKey(key)
		if err == nil {
			err = checkValues([]int{s.Ranks}, []int{s.Threads}, s.MaxRows)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// checkValues rejects numeric axis values no runner accepts, which would
// otherwise simulate a default configuration under a key of their own: a
// negative rank or thread count (0 means full node) or a row truncation
// below -1 (full extent; 0 means the runner default). ParseKey does not
// check them, so a store can still read back any record it holds.
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
