// Package sweep is a concurrent experiment-campaign engine: a
// declarative parameter grid (machine preset x workload x
// write-allocate-evasion mode x ranks x mesh x threads) expands into
// scenarios with stable
// config-hash IDs, a bounded worker pool executes them in parallel, and
// pluggable emitters render the results in deterministic grid order.
//
// The paper is fundamentally a sweep study — CloverLeaf traffic and
// runtime across machines, evasion modes, rank counts and problem sizes
// — and this package is the shared subsystem that turns "one figure at
// a time" into "whole-paper campaign in one parallel run".
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Mode is one write-allocate-evasion configuration of the patched
// CloverLeaf: the config.mk build knobs (non-temporal stores, loop
// restructuring) plus the run-time switches the paper toggles via MSR
// (SpecI2M) and likwid-features (hardware prefetchers).
type Mode struct {
	Name          string
	NTStores      bool // non-temporal destination stores
	OptimizeLoops bool // restructured/fused loop variants
	SpecI2MOff    bool // write-allocate evasion disabled (MSR bit)
	PFOff         bool // hardware prefetchers disabled
}

// allModes, modeIndex and modeNames are package-level so the lookup
// helpers below stay allocation-free in campaign hot loops (they used
// to rebuild a slice per call).
var (
	allModes = []Mode{
		{Name: "baseline"},
		{Name: "speci2m-off", SpecI2MOff: true},
		{Name: "nt", NTStores: true},
		{Name: "nt-opt", NTStores: true, OptimizeLoops: true},
		{Name: "pf-off", PFOff: true},
	}
	modeIndex = func() map[string]Mode {
		m := make(map[string]Mode, len(allModes))
		for _, mode := range allModes {
			m[mode.Name] = mode
		}
		return m
	}()
	modeNames = func() []string {
		out := make([]string, len(allModes))
		for i, m := range allModes {
			out[i] = m.Name
		}
		return out
	}()
)

// AllModes lists the evasion configurations the paper evaluates:
// the unmodified build, the build with SpecI2M disabled (the
// no-evasion baseline), non-temporal stores, NT plus restructured
// loops, and the prefetcher-off ablation. The returned slice is shared
// package state: treat it as read-only (copy before mutating).
func AllModes() []Mode { return allModes }

// ModeByName resolves a mode by its name without allocating.
func ModeByName(name string) (Mode, bool) {
	m, ok := modeIndex[name]
	return m, ok
}

// ModeNames lists the names of AllModes. The returned slice is shared
// package state: treat it as read-only.
func ModeNames() []string { return modeNames }

// ModesByName resolves a list of mode names into a fresh Mode slice:
// the mode-axis validation behind cmd/sweep -modes.
func ModesByName(names []string) ([]Mode, error) {
	var out []Mode
	for _, name := range names {
		m, ok := ModeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown mode %q (have %v)", name, modeNames)
		}
		out = append(out, m)
	}
	return out, nil
}

// ParseMeshes parses a list of WxH strings: the mesh-axis validation
// behind cmd/sweep -mesh.
func ParseMeshes(ss []string) ([]Mesh, error) {
	var out []Mesh
	for _, s := range ss {
		m, err := ParseMesh(s)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Mesh is a global problem size; the zero value means the paper's
// default 15360^2 grid.
type Mesh struct {
	X, Y int
}

func (m Mesh) String() string {
	if m.X == 0 && m.Y == 0 {
		return "default"
	}
	return fmt.Sprintf("%dx%d", m.X, m.Y)
}

// ParseMesh parses "WxH" (e.g. "15360x15360").
func ParseMesh(s string) (Mesh, error) {
	var m Mesh
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%dx%d", &m.X, &m.Y); err != nil {
		return Mesh{}, fmt.Errorf("sweep: bad mesh %q (want WxH): %v", s, err)
	}
	if m.X <= 0 || m.Y <= 0 {
		return Mesh{}, fmt.Errorf("sweep: bad mesh %q (dimensions must be positive)", s)
	}
	return m, nil
}

// Scenario is one point of a campaign grid. Zero-valued fields mean
// "runner default" (full node for Ranks/Threads, paper mesh for Mesh);
// they stay zero in the canonical key so the hash is declaration-stable.
type Scenario struct {
	Machine  string // machine preset name (machine.ByName)
	Workload string // workload name (internal/workload table); "" = runner default
	Mode     Mode
	Ranks    int  // MPI rank count; 0 = full node
	Mesh     Mesh // global problem size; zero = workload default
	Threads  int  // microbenchmark core count; 0 = full node
	MaxRows  int  // y-extent truncation; 0 = runner default, <0 = full
	Seed     uint64
}

// Key is the canonical, human-readable configuration string the ID
// hashes. Every field participates, so two scenarios collide exactly
// when they are configured identically.
func (s Scenario) Key() string {
	return fmt.Sprintf(
		"machine=%s workload=%s mode=%s nt=%t opt=%t i2moff=%t pfoff=%t ranks=%d mesh=%s threads=%d maxrows=%d seed=%#x",
		s.Machine, s.Workload, s.Mode.Name, s.Mode.NTStores, s.Mode.OptimizeLoops,
		s.Mode.SpecI2MOff, s.Mode.PFOff,
		s.Ranks, s.Mesh, s.Threads, s.MaxRows, s.Seed)
}

// ID is the stable config hash, KeyID of Key: equal across runs,
// processes and machines for equal configurations.
func (s Scenario) ID() string { return KeyID(s.Key()) }

// KeyID hashes a canonical key to its scenario's ID: 12 hex chars of
// its SHA-256.
func KeyID(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:6])
}

// Label is a short human-readable tag for progress output.
func (s Scenario) Label() string {
	l := s.Machine
	if s.Workload != "" {
		l += "/" + s.Workload
	}
	l += "/" + s.Mode.Name
	if s.Ranks > 0 {
		l += fmt.Sprintf("/r%d", s.Ranks)
	}
	if s.Threads > 0 {
		l += fmt.Sprintf("/t%d", s.Threads)
	}
	return l
}

// Grid declares a campaign as a cross product of parameter axes. Empty
// axes contribute a single zero (runner-default) value, so the minimal
// grid {Machines: ["icx"]} is one scenario.
type Grid struct {
	Machines  []string
	Workloads []string
	Modes     []Mode
	Ranks     []int
	Meshes    []Mesh
	Threads   []int
	// MaxRows and Seed are campaign-wide, not axes.
	MaxRows int
	Seed    uint64
}

func orDefault[T any](xs []T) []T {
	if len(xs) == 0 {
		var zero T
		return []T{zero}
	}
	return xs
}

// Size returns the number of scenarios Expand produces.
func (g Grid) Size() int {
	return len(orDefault(g.Machines)) * len(orDefault(g.Workloads)) * len(orDefault(g.Modes)) *
		len(orDefault(g.Meshes)) * len(orDefault(g.Ranks)) * len(orDefault(g.Threads))
}

// Expand produces the scenario list in deterministic grid order:
// machine (outermost), workload, mode, mesh, ranks, threads
// (innermost). Emitters preserve this order regardless of execution
// interleaving.
func (g Grid) Expand() []Scenario {
	out := make([]Scenario, 0, g.Size())
	for _, mach := range orDefault(g.Machines) {
		for _, wl := range orDefault(g.Workloads) {
			for _, mode := range orDefault(g.Modes) {
				for _, mesh := range orDefault(g.Meshes) {
					for _, ranks := range orDefault(g.Ranks) {
						for _, threads := range orDefault(g.Threads) {
							out = append(out, Scenario{
								Machine:  mach,
								Workload: wl,
								Mode:     mode,
								Ranks:    ranks,
								Mesh:     mesh,
								Threads:  threads,
								MaxRows:  g.MaxRows,
								Seed:     g.Seed,
							})
						}
					}
				}
			}
		}
	}
	return out
}
