package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cloversim/internal/sweep"
)

// syntheticRunner builds a deterministic runner with a per-machine
// frontier: metric "m" is value - threshold(machine), so gt:m:0 flips
// between threshold and threshold+1 on the refinement axis.
func syntheticRunner(axis Axis, thresholds map[string]float64, sims *atomic.Int64) sweep.Runner {
	return func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if sims != nil {
			sims.Add(1)
		}
		t, ok := thresholds[s.Machine]
		if !ok {
			return nil, fmt.Errorf("no threshold for machine %q", s.Machine)
		}
		v := valueOf(axis, s)
		var m sweep.Metrics
		m.Add("m", float64(v.X)-t)
		return m, nil
	}
}

// exhaustiveFrontier classifies every integer axis value in [lo, hi]
// on eng and returns the flip intervals — the reference the adaptive
// search must reproduce.
func exhaustiveFrontier(t *testing.T, eng *sweep.Engine, base sweep.Scenario, axis Axis, lo, hi int, target Target) []Interval {
	t.Helper()
	var scenarios []sweep.Scenario
	for v := lo; v <= hi; v++ {
		scenarios = append(scenarios, apply(axis, base, Value{X: v}))
	}
	c := eng.Run(context.Background(), scenarios, nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var out []Interval
	var prev *Point
	for i, r := range c.Results {
		class, _, err := target.classify([]sweep.Metrics{r.Metrics}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := Point{Value: Value{X: lo + i}, Class: class}
		if prev != nil && prev.Class != p.Class {
			out = append(out, Interval{Lo: prev.Value, Hi: p.Value, LoClass: prev.Class, HiClass: p.Class})
		}
		prev = &p
	}
	return out
}

func mustTarget(t *testing.T, s string) Target {
	t.Helper()
	tg, err := ParseTarget(s)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestParseTarget pins the predicate grammar: every documented form
// parses, every malformed string is rejected with a usage-shaped error.
func TestParseTarget(t *testing.T) {
	good := []struct {
		in   string
		kind TargetKind
	}{
		{"delta:store_ratio:nt/baseline", TargetDelta},
		{"delta:x:nt-opt/pf-off", TargetDelta},
		{"lt:jacobi_ratio:1.25", TargetBelow},
		{"gt:m:0", TargetAbove},
		{"model:jacobi_total_bpi:jacobi_bytes_lcf:0.1", TargetModel},
	}
	for _, g := range good {
		tg, err := ParseTarget(g.in)
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", g.in, err)
			continue
		}
		if tg.Kind != g.kind {
			t.Errorf("ParseTarget(%q) kind %d, want %d", g.in, tg.Kind, g.kind)
		}
		if tg.String() != g.in {
			t.Errorf("ParseTarget(%q).String() = %q", g.in, tg.String())
		}
	}
	bad := []string{
		"", "gt", "gt:m", "sign:m:0", "lt:m:abc", "lt::1",
		"delta:m:nt", "delta:m:nt/nt", "delta:m:nt/bogus", "delta:m:nt/baseline:x",
		"model:m:0.1", "model:m::0.1", "model:m:am:-1", "model:m:am:x",
	}
	for _, b := range bad {
		if _, err := ParseTarget(b); err == nil {
			t.Errorf("ParseTarget(%q) accepted, want error", b)
		}
	}
}

func TestParseAxis(t *testing.T) {
	for _, s := range []string{"ranks", "threads", "mesh"} {
		if _, err := ParseAxis(s); err != nil {
			t.Errorf("ParseAxis(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "seed", "machine"} {
		if _, err := ParseAxis(s); err == nil {
			t.Errorf("ParseAxis(%q) accepted, want error", s)
		}
	}
}

// TestAdaptiveFindsExhaustiveFrontier is the differential lockdown of
// the tentpole: on a two-track grid with per-track thresholds, the
// adaptive driver must locate exactly the frontier interval the full
// cross product implies, while simulating an order of magnitude fewer
// cells.
func TestAdaptiveFindsExhaustiveFrontier(t *testing.T) {
	const lo, hi = 1, 256
	thresholds := map[string]float64{"icx": 37.5, "spr8480": 171.5}
	target := mustTarget(t, "gt:m:0")

	// Reference: the exhaustive cross product, one engine per track so
	// cache state cannot leak into the adaptive run.
	var exhaustiveSims atomic.Int64
	wantIntervals := map[string][]Interval{}
	for _, mach := range []string{"icx", "spr8480"} {
		eng := sweep.NewEngine(4, syntheticRunner(AxisRanks, thresholds, &exhaustiveSims))
		wantIntervals[mach] = exhaustiveFrontier(t, eng, sweep.Scenario{Machine: mach}, AxisRanks, lo, hi, target)
		if len(wantIntervals[mach]) != 1 {
			t.Fatalf("machine %s: exhaustive frontier has %d intervals, want 1", mach, len(wantIntervals[mach]))
		}
	}

	var adaptiveSims atomic.Int64
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx", "spr8480"}, Ranks: []int{lo, hi}},
		Axis:   AxisRanks,
		Target: target,
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(4, syntheticRunner(AxisRanks, thresholds, &adaptiveSims)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Interrupted {
		t.Fatal("outcome interrupted without cancellation")
	}
	if len(out.Tracks) != 2 {
		t.Fatalf("got %d tracks, want 2", len(out.Tracks))
	}
	for i, mach := range []string{"icx", "spr8480"} {
		tr := out.Tracks[i]
		if tr.Base.Machine != mach {
			t.Fatalf("track %d machine %q, want %q (grid order)", i, tr.Base.Machine, mach)
		}
		want := wantIntervals[mach]
		if len(tr.Intervals) != len(want) {
			t.Fatalf("machine %s: adaptive found %d intervals, want %d", mach, len(tr.Intervals), len(want))
		}
		for j, iv := range tr.Intervals {
			if iv != want[j] {
				t.Errorf("machine %s interval %d: adaptive %+v, exhaustive %+v", mach, j, iv, want[j])
			}
		}
	}

	// The perf claim: >= 10x fewer simulated cells than the cross
	// product (2 tracks x 256 values = 512 cells exhaustive).
	exhaustiveCells := int64(2 * (hi - lo + 1))
	if adaptiveSims.Load()*10 > exhaustiveCells {
		t.Errorf("adaptive simulated %d cells, want <= %d (1/10 of %d)",
			adaptiveSims.Load(), exhaustiveCells/10, exhaustiveCells)
	}
	if out.Visited != int(adaptiveSims.Load()) {
		t.Errorf("outcome.Visited %d != %d simulations (cold engine: every visited cell simulates once)",
			out.Visited, adaptiveSims.Load())
	}
}

// TestAdaptiveDeterministic: the visited-cell set, the refinement
// trajectory and the emitted bytes must be identical across engine
// worker counts (and, via the CI -cpu matrix, GOMAXPROCS values).
func TestAdaptiveDeterministic(t *testing.T) {
	thresholds := map[string]float64{"icx": 100.5, "spr8480": 13.5}
	var outs []*Outcome
	var csvs, jsons [][]byte
	for _, workers := range []int{1, 4, 8} {
		plan := &Plan{
			Grid:   sweep.Grid{Machines: []string{"icx", "spr8480"}, Ranks: []int{1, 512}},
			Axis:   AxisRanks,
			Target: mustTarget(t, "gt:m:0"),
		}
		out, err := plan.Run(context.Background(), sweep.NewEngine(workers, syntheticRunner(AxisRanks, thresholds, nil)), nil)
		if err != nil {
			t.Fatal(err)
		}
		var csvBuf, jsonBuf bytes.Buffer
		if err := (CSVEmitter{}).Emit(&csvBuf, out); err != nil {
			t.Fatal(err)
		}
		if err := (JSONEmitter{Indent: true}).Emit(&jsonBuf, out); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		csvs = append(csvs, csvBuf.Bytes())
		jsons = append(jsons, jsonBuf.Bytes())
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Visited != outs[0].Visited || outs[i].Rounds != outs[0].Rounds {
			t.Errorf("workers run %d: visited=%d rounds=%d, want visited=%d rounds=%d",
				i, outs[i].Visited, outs[i].Rounds, outs[0].Visited, outs[0].Rounds)
		}
		if !bytes.Equal(csvs[i], csvs[0]) {
			t.Errorf("workers run %d: CSV bytes deviate:\n%s\nvs\n%s", i, csvs[i], csvs[0])
		}
		if !bytes.Equal(jsons[i], jsons[0]) {
			t.Errorf("workers run %d: JSON bytes deviate", i)
		}
	}
}

// TestDeltaTarget: the mode-pair predicate runs two probes per point
// and flips where the NT metric crosses the baseline metric.
func TestDeltaTarget(t *testing.T) {
	// baseline metric constant 1.5; nt metric = 1.0 for ranks <= 40,
	// 2.0 above: nt beats baseline up to rank 40.
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		switch s.Mode.Name {
		case "baseline":
			m.Add("ratio", 1.5)
		case "nt":
			if s.Ranks <= 40 {
				m.Add("ratio", 1.0)
			} else {
				m.Add("ratio", 2.0)
			}
		default:
			return nil, fmt.Errorf("unexpected mode %q", s.Mode.Name)
		}
		return m, nil
	}
	var sims atomic.Int64
	counting := func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		sims.Add(1)
		return run(ctx, s)
	}
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 128}},
		Axis:   AxisRanks,
		Target: mustTarget(t, "delta:ratio:nt/baseline"),
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(4, counting), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tracks) != 1 {
		t.Fatalf("got %d tracks, want 1 (delta target owns the mode axis)", len(out.Tracks))
	}
	tr := out.Tracks[0]
	if tr.Base.Mode.Name != "" {
		t.Errorf("track base mode %q, want zero", tr.Base.Mode.Name)
	}
	want := Interval{Lo: Value{X: 40}, Hi: Value{X: 41}, LoClass: true, HiClass: false}
	if len(tr.Intervals) != 1 || tr.Intervals[0] != want {
		t.Fatalf("intervals %+v, want [%+v]", tr.Intervals, want)
	}
	if int64(out.Visited) != sims.Load() {
		t.Errorf("visited %d != %d sims (two probes per point, each a distinct scenario)", out.Visited, sims.Load())
	}
	for _, p := range tr.Points {
		if len(p.Results) != 2 {
			t.Fatalf("point %v carries %d probe results, want 2", p.Value, len(p.Results))
		}
	}
}

// TestMeshAxis: mesh values refine componentwise and render as WxH.
func TestMeshAxis(t *testing.T) {
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		// Flip when row length exceeds 1000 columns.
		m.Add("m", float64(s.Mesh.X)-1000.5)
		return m, nil
	}
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Meshes: []sweep.Mesh{{X: 64, Y: 8}, {X: 4096, Y: 8}}},
		Axis:   AxisMesh,
		Target: mustTarget(t, "gt:m:0"),
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(2, run), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Tracks[0]
	if len(tr.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1", len(tr.Intervals))
	}
	iv := tr.Intervals[0]
	if iv.Lo.X != 1000 || iv.Hi.X != 1001 || iv.Lo.Y != 8 || iv.Hi.Y != 8 {
		t.Errorf("mesh frontier bracket %sx..%s, want 1000x8..1001x8",
			iv.Lo.format(AxisMesh), iv.Hi.format(AxisMesh))
	}
	if got := iv.Lo.format(AxisMesh); got != "1000x8" {
		t.Errorf("mesh value renders %q, want 1000x8", got)
	}
}

// TestSurrogateDisagreementRefines: an interval with no predicate flip
// is still refined where the analytic surrogate disagrees with
// simulation — the model-mistrust half of the refinement rule.
func TestSurrogateDisagreementRefines(t *testing.T) {
	// Simulation: constant class (m always positive). Surrogate: agrees
	// everywhere except at value 1 where it predicts the other class.
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		m.Add("m", 1.0)
		return m, nil
	}
	surrogate := func(s sweep.Scenario) (sweep.Metrics, bool) {
		var m sweep.Metrics
		if s.Ranks == 1 {
			m.Add("m", -1.0) // disagrees with simulation
		} else {
			m.Add("m", 1.0)
		}
		return m, true
	}
	mk := func(withSurrogate bool) *Outcome {
		plan := &Plan{
			Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 9}},
			Axis:   AxisRanks,
			Target: mustTarget(t, "gt:m:0"),
		}
		if withSurrogate {
			plan.Surrogate = surrogate
		}
		out, err := plan.Run(context.Background(), sweep.NewEngine(2, run), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	without := mk(false)
	if without.Visited != 2 {
		t.Fatalf("without surrogate: visited %d, want 2 (no flip, nothing refined)", without.Visited)
	}
	with := mk(true)
	if with.Visited <= without.Visited {
		t.Errorf("with disagreeing surrogate: visited %d, want > %d (disagreement refines)", with.Visited, without.Visited)
	}
	if with.FrontierCount() != 0 {
		t.Errorf("frontier count %d, want 0 (the predicate never flips)", with.FrontierCount())
	}
	// The surrogate classification is surfaced per point.
	var sawModel bool
	for _, p := range with.Tracks[0].Points {
		if p.Model != nil {
			sawModel = true
		}
	}
	if !sawModel {
		t.Error("no point carries the surrogate classification")
	}
}

// TestModelTarget: the analytic-vs-simulated divergence predicate
// brackets where the model error crosses the relative tolerance.
func TestModelTarget(t *testing.T) {
	// Simulated metric: value; analytic model: value up to 100, then
	// stuck at 100 — divergence exceeds 10% once value > 111.
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		var m sweep.Metrics
		m.Add("m", float64(s.Ranks))
		return m, nil
	}
	surrogate := func(s sweep.Scenario) (sweep.Metrics, bool) {
		v := float64(s.Ranks)
		if v > 100 {
			v = 100
		}
		var m sweep.Metrics
		m.Add("am", v)
		return m, true
	}
	plan := &Plan{
		Grid:      sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 512}},
		Axis:      AxisRanks,
		Target:    mustTarget(t, "model:m:am:0.1"),
		Surrogate: surrogate,
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(2, run), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Tracks[0]
	if len(tr.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1", len(tr.Intervals))
	}
	want := Interval{Lo: Value{X: 110}, Hi: Value{X: 111}, LoClass: false, HiClass: true}
	if tr.Intervals[0] != want {
		t.Errorf("interval %+v, want %+v (divergence >10%% above 110)", tr.Intervals[0], want)
	}
}

// TestCacheSharing: adaptive campaigns share the engine result tiers
// with prior runs — a second identical search simulates nothing.
func TestCacheSharing(t *testing.T) {
	thresholds := map[string]float64{"icx": 37.5}
	var sims atomic.Int64
	eng := sweep.NewEngine(4, syntheticRunner(AxisRanks, thresholds, &sims))
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 256}},
		Axis:   AxisRanks,
		Target: mustTarget(t, "gt:m:0"),
	}
	first, err := plan.Run(context.Background(), eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := sims.Load()
	if cold == 0 {
		t.Fatal("cold run simulated nothing")
	}
	second, err := plan.Run(context.Background(), eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != cold {
		t.Errorf("warm adaptive run simulated %d extra cells, want 0 (memoizer shared)", sims.Load()-cold)
	}
	if second.Visited != first.Visited {
		t.Errorf("warm visited %d != cold visited %d (trajectory must not depend on cache state)",
			second.Visited, first.Visited)
	}
}

// TestInterrupted: a cancelled context surfaces as a partial,
// non-erroring outcome, mirroring the engine's campaign contract.
func TestInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 64}},
		Axis:   AxisRanks,
		Target: mustTarget(t, "gt:m:0"),
	}
	out, err := plan.Run(ctx, sweep.NewEngine(2, syntheticRunner(AxisRanks, map[string]float64{"icx": 10}, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted {
		t.Fatal("outcome not marked interrupted under a cancelled context")
	}
	if len(out.Tracks[0].Points) != 0 {
		t.Errorf("%d points classified under a pre-cancelled context, want 0", len(out.Tracks[0].Points))
	}
}

// TestProbeFailure: a failing probe aborts refinement and surfaces as
// the returned error alongside the partial outcome.
func TestProbeFailure(t *testing.T) {
	boom := errors.New("boom")
	run := func(_ context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if s.Ranks == 64 {
			return nil, boom
		}
		var m sweep.Metrics
		m.Add("m", float64(s.Ranks)-32.5)
		return m, nil
	}
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 64}},
		Axis:   AxisRanks,
		Target: mustTarget(t, "gt:m:0"),
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(2, run), nil)
	if err == nil {
		t.Fatal("probe failure did not surface as an error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the probe failure", err)
	}
	if out == nil {
		t.Fatal("no partial outcome alongside the error")
	}
	if out.Rounds != 1 {
		t.Errorf("refinement continued past the failing wave: %d rounds", out.Rounds)
	}
}

// TestValidate pins the plan-invariant errors the CLI maps to usage
// exits.
func TestValidate(t *testing.T) {
	base := sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 8}}
	cases := []struct {
		name string
		plan Plan
	}{
		{"bad axis", Plan{Grid: base, Axis: "seed", Target: mustTarget(t, "gt:m:0")}},
		{"one seed", Plan{Grid: sweep.Grid{Machines: []string{"icx"}, Ranks: []int{4}}, Axis: AxisRanks, Target: mustTarget(t, "gt:m:0")}},
		{"dup seeds", Plan{Grid: sweep.Grid{Machines: []string{"icx"}, Ranks: []int{4, 4}}, Axis: AxisRanks, Target: mustTarget(t, "gt:m:0")}},
		{"non-positive seed", Plan{Grid: sweep.Grid{Machines: []string{"icx"}, Ranks: []int{0, 8}}, Axis: AxisRanks, Target: mustTarget(t, "gt:m:0")}},
		{"delta with modes", Plan{Grid: sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 8}, Modes: sweep.AllModes()}, Axis: AxisRanks, Target: mustTarget(t, "delta:m:nt/baseline")}},
		{"model without surrogate", Plan{Grid: base, Axis: AxisRanks, Target: mustTarget(t, "model:m:am:0.1")}},
	}
	for _, c := range cases {
		p := c.plan
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted, want error", c.name)
		}
	}
	ok := Plan{Grid: base, Axis: AxisRanks, Target: mustTarget(t, "gt:m:0")}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestEmittersRenderBothSections: the frontier artifacts carry the
// bracketing intervals AND every visited cell in grid order.
func TestEmittersRenderBothSections(t *testing.T) {
	plan := &Plan{
		Grid:   sweep.Grid{Machines: []string{"icx"}, Ranks: []int{1, 16}},
		Axis:   AxisRanks,
		Target: mustTarget(t, "gt:m:0"),
	}
	out, err := plan.Run(context.Background(), sweep.NewEngine(2, syntheticRunner(AxisRanks, map[string]float64{"icx": 8.5}, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := (CSVEmitter{}).Emit(&csvBuf, out); err != nil {
		t.Fatal(err)
	}
	s := csvBuf.String()
	if !strings.Contains(s, "frontier,icx") || !strings.Contains(s, "cell,icx") {
		t.Errorf("CSV lacks frontier or cell rows:\n%s", s)
	}
	// Cells in ascending axis order, values in the ranks column syntax.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	var prev int
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if f[0] != "cell" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(f[8], "%d", &v); err != nil {
			t.Fatalf("cell value %q not numeric: %v", f[8], err)
		}
		if v <= prev {
			t.Fatalf("cell values not strictly ascending: %d after %d", v, prev)
		}
		prev = v
	}
	if prev == 0 {
		t.Fatal("no cell rows parsed")
	}
	var jsonBuf bytes.Buffer
	if err := (JSONEmitter{}).Emit(&jsonBuf, out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"axis":"ranks"`, `"intervals":`, `"cells":`, `"target":"gt:m:0"`} {
		if !strings.Contains(jsonBuf.String(), want) {
			t.Errorf("JSON lacks %s:\n%s", want, jsonBuf.String())
		}
	}
}
