// Package workload is the pluggable workload registry of the sweep
// campaigns: every workload exposes the same four-method contract — its
// Name, its DefaultMesh (mesh/size semantics), Run (a traffic generator
// that replays the workload's memory accesses through the memsim
// hierarchy and the write-allocate-evasion store engine) and Analytic
// (an analytic-model hook) — so one campaign can cross machines x
// evasion modes x workloads.
//
// The paper's claim is that write-allocate evasion effects generalize
// beyond CloverLeaf to any streaming or stencil kernel; this registry
// is where that generalization lives. Registered here: the CloverLeaf
// hydro step (the paper's subject), STREAM-style copy/triad kernels,
// a 2D Jacobi stencil, and a Riemann-solver profile writer.
//
// Adding a workload: implement Workload, call Register from an init
// function, and it becomes addressable from cmd/sweep -workloads and
// the root RunScenarioContext runner.
package workload

import (
	"fmt"
	"sort"
	"sync"

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

// Workload is one registered campaign workload.
type Workload interface {
	// Name is the registry key (cmd/sweep -workloads syntax).
	Name() string
	// DefaultMesh is the problem size used when the scenario leaves
	// the mesh axis zero. Semantics are workload-defined: global grid
	// for cloverleaf, elements-per-row x rows for the kernels.
	DefaultMesh() sweep.Mesh
	// Run simulates the workload under the config and returns its
	// ordered metrics. Implementations must be deterministic in the
	// config (campaign output is byte-compared across runs).
	Run(Config) (sweep.Metrics, error)
	// Analytic returns the workload's analytic traffic model (code
	// balances, layer-condition expectations) for the config, or
	// ok=false when no analytic model exists. It never simulates.
	Analytic(Config) (m sweep.Metrics, ok bool)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload to the registry; it panics on an empty or
// duplicate name (registration is an init-time programming error).
func Register(w Workload) {
	name := w.Name()
	if name == "" {
		panic("workload: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("workload: duplicate Register of " + name)
	}
	registry[name] = w
}

// ByName resolves a registered workload.
func ByName(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := registry[name]
	return w, ok
}

// Names lists the registered workload names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultName is the workload a scenario with an empty Workload field
// runs: the paper's own subject.
const DefaultName = "cloverleaf"

// ValidateAxes checks machine and workload axis values against their
// registries: the axis validator cmd/sweep's grid spec resolves with
// (sweep.GridSpec.Resolve).
func ValidateAxes(machines, workloads []string) error {
	for _, m := range machines {
		if _, ok := machine.ByName(m); !ok {
			return fmt.Errorf("unknown machine %q (have %v)", m, machine.Names())
		}
	}
	for _, w := range workloads {
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
		return nil, Config{}, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	spec, ok := machine.ByName(s.Machine)
	if !ok {
		return nil, Config{}, fmt.Errorf("workload: unknown machine %q (have %v)", s.Machine, machine.Names())
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
		return nil, Config{}, fmt.Errorf("workload %s: rank count %d outside 1..%d on %s",
			name, cfg.Ranks, spec.Cores(), spec.Name)
	}
	if cfg.Threads > spec.Cores() {
		return nil, Config{}, fmt.Errorf("workload %s: thread count %d outside 1..%d on %s",
			name, cfg.Threads, spec.Cores(), spec.Name)
	}
	if cfg.MeshX == 0 && cfg.MeshY == 0 {
		m := w.DefaultMesh()
		cfg.MeshX, cfg.MeshY = m.X, m.Y
	}
	if cfg.MeshX <= 0 || cfg.MeshY <= 0 {
		return nil, Config{}, fmt.Errorf("workload %s: non-positive mesh %dx%d", name, cfg.MeshX, cfg.MeshY)
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
	return w.Run(cfg)
}

// Analytic resolves a scenario and evaluates its workload's analytic
// model without simulating — the cheap surrogate the adaptive search
// driver (internal/search) uses to prune refinement intervals. It
// answers ok=false when the scenario does not resolve or the workload
// has no analytic model; like Run, it is deterministic in the scenario.
func Analytic(s sweep.Scenario) (sweep.Metrics, bool) {
	w, cfg, err := Resolve(s)
	if err != nil {
		return nil, false
	}
	return w.Analytic(cfg)
}
