// Package search is the adaptive campaign driver: it treats a sweep
// grid as a search space instead of an enumeration. The paper's real
// questions are frontier questions — *where* does non-temporal
// write-allocate evasion beat the baseline, *at which* rank, mesh or
// thread count does a stencil's layer condition break — yet an
// exhaustive campaign pays for the full cross product even though most
// cells are far from any decision boundary.
//
// A Plan takes a resolved sweep.Grid, one numeric refinement axis
// (ranks, mesh or threads) and a Target predicate over sweep.Metrics,
// and runs in deterministic *waves*: each round the pending probe
// points of every track (the cross product of the non-axis grid
// dimensions) are resolved into explicit scenarios and executed through
// one Engine.Run call — so the engine's store probe and
// write-through, local and fleet backends, streaming progress and
// cancellation semantics all apply unchanged — and then
// only the intervals where the predicate changes sign are bisected;
// everything else is pruned. Because refinement decisions are
// made between waves from completed results only, the visited-cell set
// and the refinement trajectory are bit-deterministic regardless of
// backend parallelism, and because every result is a content-addressed
// store record, adaptive and exhaustive campaigns share cache both
// ways.
package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"cloversim/internal/sweep"
)

// Axis is the numeric grid dimension a Plan refines along.
type Axis string

const (
	AxisRanks   Axis = "ranks"
	AxisThreads Axis = "threads"
	AxisMesh    Axis = "mesh"
)

// ParseAxis validates a -adaptive axis name.
func ParseAxis(s string) (Axis, error) {
	switch Axis(s) {
	case AxisRanks, AxisThreads, AxisMesh:
		return Axis(s), nil
	}
	return "", fmt.Errorf("search: bad axis %q (want ranks, threads or mesh)", s)
}

// Value is one point on the refinement axis: X carries the rank or
// thread count, and the mesh axis uses both components (X columns, Y
// rows). Values order lexicographically by (X, Y) and refine by
// componentwise integer midpoints.
type Value struct{ X, Y int }

// valueOf extracts the axis value of a scenario.
func valueOf(axis Axis, s sweep.Scenario) Value {
	switch axis {
	case AxisRanks:
		return Value{X: s.Ranks}
	case AxisThreads:
		return Value{X: s.Threads}
	default:
		return Value{X: s.Mesh.X, Y: s.Mesh.Y}
	}
}

// String renders the value in the axis's native syntax.
func (v Value) format(axis Axis) string {
	if axis == AxisMesh {
		return fmt.Sprintf("%dx%d", v.X, v.Y)
	}
	return fmt.Sprintf("%d", v.X)
}

func (v Value) less(o Value) bool {
	if v.X != o.X {
		return v.X < o.X
	}
	return v.Y < o.Y
}

// mid returns the componentwise integer midpoint.
func mid(a, b Value) Value { return Value{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2} }

// gap is the largest componentwise distance between two values — the
// interval width the tolerance is compared against.
func gap(a, b Value) int {
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dy > dx {
		return dy
	}
	return dx
}

// apply instantiates a track's base scenario at an axis value.
func apply(axis Axis, base sweep.Scenario, v Value) sweep.Scenario {
	switch axis {
	case AxisRanks:
		base.Ranks = v.X
	case AxisThreads:
		base.Threads = v.X
	default:
		base.Mesh = sweep.Mesh{X: v.X, Y: v.Y}
	}
	return base
}

// Plan is one adaptive frontier-search campaign.
type Plan struct {
	// Grid is the resolved base grid. The refinement axis's values are
	// the seed probe points (at least two are required: the initial
	// bracketing interval endpoints); the remaining dimensions form the
	// tracks the search runs independently over. For TargetDelta plans
	// the mode axis is owned by the predicate's mode pair and must be
	// left empty.
	Grid sweep.Grid
	// Axis is the numeric dimension refined between waves.
	Axis Axis
	// Target classifies each probe point; the frontier is where the
	// classification flips between adjacent axis values.
	Target Target
	// Tol stops refining an interval once its axis gap is <= Tol
	// (default 1, the integer resolution limit). For the mesh axis the
	// gap is the larger componentwise distance.
	Tol int
	// MaxRounds bounds the number of waves (default 16). The first
	// wave probes the seeds, so n waves bisect an interval at most n-1
	// times: the default reaches Tol 1 on seed gaps up to 2^15 and
	// stops wider brackets at the bound, a gap of 2^16 at 2 wide.
	MaxRounds int
	// Surrogate evaluates a scenario's analytic model
	// (workload.Analytic) without simulating. Only TargetModel plans
	// read it, to compare each simulated point against its model, and
	// they require it.
	Surrogate func(sweep.Scenario) (sweep.Metrics, bool)
}

// Point is one visited axis point of one track.
type Point struct {
	Value Value
	// Class is the predicate's classification.
	Class bool
	// Results are the probe results in probe order (TargetDelta:
	// [ModeA, ModeB]).
	Results []sweep.Result
}

// Interval is one bracketing interval of the frontier: the predicate
// classifies the endpoints differently, and no visited point lies
// between them.
type Interval struct {
	Lo, Hi           Value
	LoClass, HiClass bool
}

// TrackResult is one track's search outcome: the visited points in
// ascending axis order and the bracketing intervals between them.
type TrackResult struct {
	// Base is the track's scenario template: the refinement axis field
	// is zero, and for TargetDelta plans the mode is zero too (the
	// predicate owns it).
	Base      sweep.Scenario
	Points    []Point
	Intervals []Interval
}

// Outcome is a completed (or interrupted) adaptive campaign.
type Outcome struct {
	Axis   Axis
	Target Target
	// Rounds is the number of executed waves.
	Rounds int
	// Visited counts the unique scenarios handed to the engine across
	// all waves — the adaptive analogue of Grid.Size(), and the number
	// an exhaustive cross product is compared against. Cache-served
	// cells count: the driver scheduled them.
	Visited int
	// Interrupted reports that ctx was cancelled mid-wave: the points
	// classified so far stand, unfinished probes are dropped.
	Interrupted bool
	// CacheErr aggregates store write failures across waves
	// (sweep.Campaign.CacheErr semantics).
	CacheErr error
	Tracks   []TrackResult
}

// FrontierCount returns the total bracketing intervals across tracks.
func (o *Outcome) FrontierCount() int {
	n := 0
	for _, t := range o.Tracks {
		n += len(t.Intervals)
	}
	return n
}

// insert adds p to the track's points, keeping them ascending by
// value: every order-sensitive walk runs over this slice, never over a
// map.
func (t *TrackResult) insert(p Point) {
	i := sort.Search(len(t.Points), func(i int) bool { return !t.Points[i].Value.less(p.Value) })
	t.Points = slices.Insert(t.Points, i, p)
}

// seedValues extracts, sorts and deduplicates the refinement axis's
// grid values.
func seedValues(g sweep.Grid, axis Axis) ([]Value, error) {
	var vals []Value
	switch axis {
	case AxisRanks:
		for _, r := range g.Ranks {
			vals = append(vals, Value{X: r})
		}
	case AxisThreads:
		for _, t := range g.Threads {
			vals = append(vals, Value{X: t})
		}
	case AxisMesh:
		for _, m := range g.Meshes {
			vals = append(vals, Value{X: m.X, Y: m.Y})
		}
	default:
		return nil, fmt.Errorf("search: bad axis %q", axis)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].less(vals[j]) })
	dedup := vals[:0]
	for i, v := range vals {
		if i == 0 || vals[i-1] != v {
			dedup = append(dedup, v)
		}
	}
	vals = dedup
	if len(vals) < 2 {
		return nil, fmt.Errorf("search: axis %s needs at least two seed values to bracket a frontier (got %d)", axis, len(vals))
	}
	for _, v := range vals {
		if v.X <= 0 || (axis == AxisMesh && v.Y <= 0) {
			return nil, fmt.Errorf("search: axis %s seed value %s must be positive", axis, v.format(axis))
		}
	}
	return vals, nil
}

// tracksOf expands the non-axis grid dimensions into track templates in
// grid order.
func tracksOf(g sweep.Grid, axis Axis, delta bool) []sweep.Scenario {
	tg := g
	switch axis {
	case AxisRanks:
		tg.Ranks = nil
	case AxisThreads:
		tg.Threads = nil
	case AxisMesh:
		tg.Meshes = nil
	}
	if delta {
		tg.Modes = nil
	}
	return tg.Expand()
}

// probes lists the scenarios one point costs, in deterministic probe
// order.
func (p *Plan) probes(base sweep.Scenario, v Value) []sweep.Scenario {
	s := apply(p.Axis, base, v)
	if p.Target.Kind == TargetDelta {
		a, b := s, s
		a.Mode, b.Mode = p.Target.ModeA, p.Target.ModeB
		return []sweep.Scenario{a, b}
	}
	return []sweep.Scenario{s}
}

// Validate checks the plan invariants shared by Run and the CLI's
// usage-error path: a known axis, at least two seed values, an empty
// mode axis under TargetDelta, and a surrogate for TargetModel.
func (p *Plan) Validate() error {
	if _, err := ParseAxis(string(p.Axis)); err != nil {
		return err
	}
	if _, err := seedValues(p.Grid, p.Axis); err != nil {
		return err
	}
	if p.Target.Kind == TargetDelta && len(p.Grid.Modes) > 0 {
		return fmt.Errorf("search: a delta target owns the mode axis (%s vs %s); drop the grid's mode values",
			p.Target.ModeA.Name, p.Target.ModeB.Name)
	}
	if p.Target.Kind == TargetModel && p.Surrogate == nil {
		return fmt.Errorf("search: target %s needs an analytic surrogate", p.Target)
	}
	return nil
}

// Run executes the adaptive campaign: waves of explicit scenarios
// through eng (whose Cache and Backend apply unchanged), bisection
// between waves. progress is each wave's engine
// hook: it counts that wave's probes.
//
// Cancelling ctx stops the search at the current wave: classified
// points stand, Outcome.Interrupted is set, and no error is returned
// (mirroring the engine's partial-campaign contract). Probe failures —
// scenario errors or predicate evaluation errors — abort refinement and
// surface as the returned error alongside the partial outcome.
func (p *Plan) Run(ctx context.Context, eng *sweep.Engine, progress func(done, total int, r sweep.Result)) (*Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seeds, err := seedValues(p.Grid, p.Axis)
	if err != nil {
		return nil, err
	}
	tol := p.Tol
	if tol <= 0 {
		tol = 1
	}
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	bases := tracksOf(p.Grid, p.Axis, p.Target.Kind == TargetDelta)
	out := &Outcome{Axis: p.Axis, Target: p.Target, Tracks: make([]TrackResult, len(bases))}
	seen := make([]map[Value]bool, len(bases)) // per track: points visited or pending
	pending := make([][]Value, len(bases))
	for i, b := range bases {
		out.Tracks[i].Base = b
		seen[i] = map[Value]bool{}
		pending[i] = append([]Value(nil), seeds...)
		for _, v := range seeds {
			seen[i][v] = true
		}
	}

	visited := map[string]bool{} // scenario ID -> scheduled (count only)
	var errs []error
	var cacheErrs []error

	for round := 0; round < maxRounds; round++ {
		// Assemble the wave in deterministic order: tracks in grid
		// order, each track's pending values ascending, probe order
		// within a point fixed by the target.
		type ref struct {
			track int
			value Value
		}
		var refs []ref
		var batch []sweep.Scenario
		for ti, tr := range out.Tracks {
			sort.Slice(pending[ti], func(i, j int) bool { return pending[ti][i].less(pending[ti][j]) })
			for _, v := range pending[ti] {
				refs = append(refs, ref{ti, v})
				batch = append(batch, p.probes(tr.Base, v)...)
			}
			pending[ti] = nil
		}
		if len(refs) == 0 {
			break
		}
		out.Rounds++
		for _, s := range batch {
			visited[s.ID()] = true
		}
		camp := eng.Run(ctx, batch, progress)
		if camp.CacheErr != nil {
			cacheErrs = append(cacheErrs, camp.CacheErr)
		}

		// Harvest: map results back to points, classify, insert.
		probeN := p.Target.Probes()
		interrupted := false
		for ri, rf := range refs {
			rs := camp.Results[ri*probeN : ri*probeN+probeN]
			var unstarted, failed bool
			sim := make([]sweep.Metrics, probeN)
			for pi, r := range rs {
				if errors.Is(r.Err, sweep.ErrUnstarted) {
					unstarted = true
					continue
				}
				if r.Err != nil {
					failed = true
					errs = append(errs, fmt.Errorf("search: probe %s (%s): %w", r.ID, r.Scenario.Label(), r.Err))
					continue
				}
				sim[pi] = r.Metrics
			}
			if unstarted {
				interrupted = true
				continue
			}
			if failed {
				continue
			}
			var analytic sweep.Metrics
			if p.Target.Kind == TargetModel {
				if m, ok := p.Surrogate(rs[0].Scenario); ok {
					analytic = m
				}
			}
			class, cerr := p.Target.classify(sim, analytic)
			if cerr != nil {
				errs = append(errs, cerr)
				continue
			}
			out.Tracks[rf.track].insert(Point{Value: rf.value, Class: class, Results: slices.Clone(rs)})
		}
		if interrupted {
			out.Interrupted = true
			break
		}
		if len(errs) > 0 {
			// A failed probe poisons refinement decisions; stop rather
			// than search on partial information.
			break
		}

		// Refine: bisect intervals whose classification flips; prune
		// everything else.
		for ti, tr := range out.Tracks {
			for i := 0; i+1 < len(tr.Points); i++ {
				a, b := tr.Points[i], tr.Points[i+1]
				if a.Class == b.Class {
					continue
				}
				if gap(a.Value, b.Value) <= tol {
					continue
				}
				m := mid(a.Value, b.Value)
				if m == a.Value || m == b.Value || seen[ti][m] {
					continue
				}
				seen[ti][m] = true
				pending[ti] = append(pending[ti], m)
			}
		}
	}

	out.Visited = len(visited)
	out.CacheErr = errors.Join(cacheErrs...)
	for ti := range out.Tracks {
		tr := &out.Tracks[ti]
		for i := 0; i+1 < len(tr.Points); i++ {
			a, b := tr.Points[i], tr.Points[i+1]
			if a.Class != b.Class {
				tr.Intervals = append(tr.Intervals, Interval{
					Lo: a.Value, Hi: b.Value, LoClass: a.Class, HiClass: b.Class,
				})
			}
		}
	}
	return out, errors.Join(errs...)
}
