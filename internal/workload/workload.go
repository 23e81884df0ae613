// Package workload is the table of sweep campaign workloads. Each row
// is a name, the mesh a scenario with a zero mesh axis runs (its
// semantics are the workload's own), a run function that replays the
// workload's memory accesses through the memsim hierarchy and the
// write-allocate-evasion store engine, and an analytic function that
// evaluates its traffic model without simulating. One campaign crosses
// machines x evasion modes x workloads.
//
// The paper's claim is that write-allocate evasion effects generalize
// beyond CloverLeaf to any streaming or stencil kernel; this table is
// where that generalization lives: the CloverLeaf hydro step (the
// paper's subject), STREAM-style copy/triad kernels, a 2D Jacobi
// stencil, and a Riemann-solver profile writer.
//
// Adding a workload: write its run and analytic functions in a new
// file and add a row to workloads; it becomes addressable from
// cmd/sweep -workloads and the root RunScenarioContext runner, and it
// joins cmd/sweep's default grid.
package workload

import (
	"fmt"

	"cloversim/internal/machine"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// Config is one resolved workload execution request: scenario axes with
// runner defaults already applied (machine resolved, full node for
// zero rank/thread counts, workload default mesh for a zero mesh).
type Config struct {
	Machine *machine.Spec // resolved machine preset (never nil)
	Mode    sweep.Mode    // evasion-mode knobs (NT, loops, MSR, PF)
	Ranks   int           // MPI rank count (>= 1)
	Threads int           // active core count for pressure (>= 1)
	MeshX   int           // problem size, workload semantics
	MeshY   int
	MaxRows int // y-extent truncation; 0 = runner default, <0 = full
	Seed    uint64
	// Memo is the campaign's loop memo (nil: each simulation keeps its
	// own). It is not a scenario axis: it changes no result, only how
	// many loops are simulated rather than served from the memo.
	Memo *trace.Memo
}

// EffectiveSpec returns the machine spec with the mode's MSR knob
// applied (SpecI2M disabled on a copy when the mode asks for it).
func (c Config) EffectiveSpec() *machine.Spec {
	if !c.Mode.SpecI2MOff || !c.Machine.I2M.Enabled {
		return c.Machine
	}
	s := *c.Machine
	s.I2M.Enabled = false
	return &s
}

// Workload is one row of the workload table.
type Workload struct {
	// name is the cmd/sweep -workloads key.
	name string
	// defaultMesh is the problem size of a scenario whose mesh axis is
	// zero: the global grid for cloverleaf, elements per row x rows for
	// the kernels.
	defaultMesh sweep.Mesh
	// run simulates the workload under the config and returns its
	// ordered metrics. It must be deterministic in the config: campaign
	// output is byte-compared across runs.
	run func(Config) (sweep.Metrics, error)
	// analytic returns the workload's analytic traffic model (code
	// balances, layer-condition expectations) for the config, or
	// ok=false when it cannot answer. It never simulates.
	analytic func(Config) (m sweep.Metrics, ok bool)
}

// workloads is the workload table, sorted by name.
var workloads = []Workload{
	// The paper's 15360^2 global grid.
	{name: "cloverleaf", defaultMesh: sweep.Mesh{X: 15360, Y: 15360}, run: cloverleafRun, analytic: cloverleafAnalytic},
	// Rows long enough that three of them still satisfy the L2 layer
	// condition, over enough rows to stream.
	{name: "jacobi", defaultMesh: sweep.Mesh{X: 4096, Y: 48}, run: jacobiRun, analytic: jacobiAnalytic},
	// 4096-cell profiles for 32 snapshots.
	{name: "riemann", defaultMesh: sweep.Mesh{X: 4096, Y: 32}, run: riemannRun, analytic: riemannAnalytic},
	// Each array at 2 MiB (8192 x 32 doubles): larger than the private
	// caches, small enough for fast campaigns.
	{name: "stream", defaultMesh: sweep.Mesh{X: 8192, Y: 32}, run: streamRun, analytic: streamAnalytic},
}

// ByName returns the named row of the workload table.
func ByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists the workload names, sorted.
func Names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// DefaultName is the workload a scenario with an empty Workload field
// runs: the paper's own subject.
const DefaultName = "cloverleaf"

// ValidateAxes checks machine and workload axis values against the
// machine presets and the workload table: the validation behind
// cmd/sweep -machines and -workloads.
func ValidateAxes(machines, workloadNames []string) error {
	for _, m := range machines {
		if _, ok := machine.ByName(m); !ok {
			return fmt.Errorf("unknown machine %q (have %v)", m, machine.Names())
		}
	}
	for _, w := range workloadNames {
		if _, ok := ByName(w); !ok {
			return fmt.Errorf("unknown workload %q (have %v)", w, Names())
		}
	}
	return nil
}

// Resolve maps a sweep scenario onto (workload, config), applying the
// runner defaults: empty workload name means DefaultName, zero
// rank/thread counts mean the full node, a zero mesh means the
// workload's default.
func Resolve(s sweep.Scenario) (Workload, Config, error) {
	name := s.Workload
	if name == "" {
		name = DefaultName
	}
	w, ok := ByName(name)
	if !ok {
		return Workload{}, Config{}, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	spec, ok := machine.ByName(s.Machine)
	if !ok {
		return Workload{}, Config{}, fmt.Errorf("workload: unknown machine %q (have %v)", s.Machine, machine.Names())
	}
	cfg := Config{
		Machine: spec,
		Mode:    s.Mode,
		Ranks:   s.Ranks,
		Threads: s.Threads,
		MeshX:   s.Mesh.X,
		MeshY:   s.Mesh.Y,
		MaxRows: s.MaxRows,
		Seed:    s.Seed,
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = spec.Cores()
	}
	if cfg.Threads <= 0 {
		cfg.Threads = spec.Cores()
	}
	if cfg.Ranks > spec.Cores() {
		return Workload{}, Config{}, fmt.Errorf("workload %s: rank count %d outside 1..%d on %s",
			name, cfg.Ranks, spec.Cores(), spec.Name)
	}
	if cfg.Threads > spec.Cores() {
		return Workload{}, Config{}, fmt.Errorf("workload %s: thread count %d outside 1..%d on %s",
			name, cfg.Threads, spec.Cores(), spec.Name)
	}
	if cfg.MeshX == 0 && cfg.MeshY == 0 {
		cfg.MeshX, cfg.MeshY = w.defaultMesh.X, w.defaultMesh.Y
	}
	if cfg.MeshX <= 0 || cfg.MeshY <= 0 {
		return Workload{}, Config{}, fmt.Errorf("workload %s: non-positive mesh %dx%d", name, cfg.MeshX, cfg.MeshY)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	return w, cfg, nil
}

// Run resolves and executes a scenario, sharing loop replays through
// memo (nil: a memo private to this call).
func Run(s sweep.Scenario, memo *trace.Memo) (sweep.Metrics, error) {
	w, cfg, err := Resolve(s)
	if err != nil {
		return nil, err
	}
	cfg.Memo = memo
	return w.run(cfg)
}

// Analytic resolves a scenario and evaluates its workload's analytic
// model without simulating: the surrogate that the adaptive search's
// model targets (internal/search TargetModel) compare simulation
// against. It answers ok=false when the scenario does not resolve or
// the workload's model cannot answer; like Run, it is deterministic in
// the scenario.
func Analytic(s sweep.Scenario) (sweep.Metrics, bool) {
	w, cfg, err := Resolve(s)
	if err != nil {
		return nil, false
	}
	return w.analytic(cfg)
}
