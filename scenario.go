package cloversim

import (
	"context"
	"fmt"

	"cloversim/internal/sweep"
	"cloversim/internal/trace"
	"cloversim/internal/workload"
)

// PhysicsVersion tags every persisted campaign result with the
// semantic version of the simulation physics: the memsim hierarchy,
// the write-allocate store engine, the analytic models and the
// workload traffic generators. The persistent result store
// (internal/store) refuses to serve records written under a different
// version, so stale results can never masquerade as current ones.
//
// Bump it whenever a change alters simulated results — exactly the
// changes the golden-campaign suite catches as fixture diffs. The pin
// in testdata/physics_version (checked by TestPhysicsVersionPinned,
// rewritten by -update-golden) ties the two together: regenerating the
// golden fixtures forces this constant into the review diff.
const PhysicsVersion = "p1"

// RunScenarioContext executes one sweep scenario through the workload
// table: the scenario's workload (default: the CloverLeaf study)
// resolved by name, with runner defaults applied for unset axes. It
// refuses to start a simulation once ctx has ended (the last check
// before the workload runs — the engine's own dispatch and slot-acquire
// checks come earlier), but a simulation that has already begun runs
// to completion so its result can be cached and persisted. It is the
// sweep.Runner that cmd/sweep and cmd/sweepd feed to the sweep engine.
//
// The simulation shares loop replays through the campaign's loop memo
// that ctx carries (trace.WithMemo), or through a memo of its own when
// ctx carries none. Memo sharing never changes a result.
func RunScenarioContext(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
	if err := ctx.Err(); err != nil {
		// Nothing simulated: carry the engine's distinguished unstarted
		// marker so the cell counts as skipped, not failed.
		return nil, fmt.Errorf("cloversim: scenario %s (%s) %w: %w", s.ID(), s.Label(), sweep.ErrUnstarted, err)
	}
	return workload.Run(s, trace.ContextMemo(ctx))
}
