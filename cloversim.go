// Package cloversim is the public API of the CloverLeaf write-allocate
// evasion study: a Go reproduction of "CloverLeaf on Intel Multi-Core
// CPUs: A Case Study in Write-Allocate Evasion" (IPDPS 2024).
//
// The package exposes one runner per paper artifact (Listing 2, Table I,
// Figures 2-11), and they are the only code that derives the paper's
// figures; each returns the figure's one representation, the CSV table
// cmd/experiments writes (committed under testdata/figures).
// Every runner takes a context first: its traffic studies replay their
// loops through the loop memo the context carries (trace.WithMemo), so
// runners that share a context share loop replays, and its fan-outs
// stop scheduling points once the context ends.
//
// The heavy lifting lives in the internal packages:
//
//   - internal/core     — SpecI2M write-allocate-evasion store engine
//   - internal/memsim   — cache hierarchy simulator
//   - internal/machine  — ICX/SPR machine models
//   - internal/trace    — loop replay
//   - internal/cloverleaf — the hydro mini-app (physics + traffic specs)
//   - internal/bench    — store/copy microbenchmarks
//   - internal/decomp   — CloverLeaf's domain decomposition
package cloversim

import (
	"fmt"

	"cloversim/internal/cloverleaf"
	"cloversim/internal/machine"
)

// Options configures experiment fidelity.
type Options struct {
	// MachineName selects a preset ("icx", "spr8470", "spr8470+s",
	// "spr8480"); default "icx".
	MachineName string
	// MaxRows truncates each rank's y extent in traffic studies to at
	// most this many rows. 0 selects the default of 32, for
	// tractability; -1 keeps the paper-faithful full extent
	// (cmd/experiments -full passes it), and a value below -1 is an
	// error. cloverleaf.RowLimit applies the rule.
	MaxRows int
	// Ranks restricts scaling sweeps to these rank counts (default: all
	// 1..cores). Every entry must lie in 1..cores of the machine.
	Ranks []int
}

// resolve applies the default machine and looks it up, and rejects a
// MaxRows that cloverleaf.RowLimit refuses and a Ranks entry outside
// 1..cores of the machine.
func (o Options) resolve() (Options, *machine.Spec, error) {
	if _, err := cloverleaf.RowLimit(o.MaxRows); err != nil {
		return o, nil, err
	}
	if o.MachineName == "" {
		o.MachineName = machine.NameICX8360Y
	}
	spec, ok := machine.ByName(o.MachineName)
	if !ok {
		return o, nil, fmt.Errorf("cloversim: unknown machine %q (have %v)", o.MachineName, machine.Names())
	}
	for _, r := range o.Ranks {
		if r < 1 || r > spec.Cores() {
			return o, nil, fmt.Errorf("cloversim: rank count %d outside 1..%d of %s", r, spec.Cores(), spec.Name)
		}
	}
	return o, spec, nil
}

// rankList returns Ranks, or every count 1..max when Ranks is empty.
func (o Options) rankList(max int) []int {
	if len(o.Ranks) > 0 {
		return o.Ranks
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Machines lists the available machine presets.
func Machines() []string { return machine.Names() }
