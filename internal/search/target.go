package search

import (
	"fmt"
	"strconv"
	"strings"

	"cloversim/internal/sweep"
)

// TargetKind selects the predicate family of a frontier search.
type TargetKind uint8

const (
	// TargetDelta classifies a point by comparing one metric across two
	// evasion modes: true iff the metric under ModeA is strictly below
	// the metric under ModeB ("A beats B" for lower-is-better metrics
	// like traffic ratios). Each probe point costs two scenarios.
	TargetDelta TargetKind = iota
	// TargetBelow is a threshold predicate: true iff metric < Threshold.
	TargetBelow
	// TargetAbove is a threshold predicate: true iff metric > Threshold.
	TargetAbove
	// TargetModel classifies a point by analytic-vs-simulated
	// divergence: true iff |sim(Metric) - analytic(AnalyticMetric)|
	// exceeds RelTol * |analytic(AnalyticMetric)|. It requires the
	// workload to answer its Analytic hook.
	TargetModel
)

// Target is a parsed frontier predicate: the boolean classification of
// one axis point from the metrics of its probe scenarios. The frontier
// is where the classification flips between adjacent axis values.
type Target struct {
	Kind   TargetKind
	Metric string
	// AnalyticMetric is the surrogate metric TargetModel compares
	// Metric against (workload analytic hooks publish their own metric
	// names, e.g. jacobi_bytes_lcf vs the simulated jacobi_total_bpi).
	AnalyticMetric string
	ModeA, ModeB   sweep.Mode // TargetDelta's mode pair
	Threshold      float64    // TargetBelow / TargetAbove
	RelTol         float64    // TargetModel relative tolerance

	raw string
}

// String returns the canonical grammar form the target was parsed from.
func (t Target) String() string { return t.raw }

// Probes reports how many scenarios one axis point costs: two for the
// mode-pair delta, one otherwise.
func (t Target) Probes() int {
	if t.Kind == TargetDelta {
		return 2
	}
	return 1
}

// ParseTarget parses the -target predicate grammar:
//
//	delta:<metric>:<modeA>/<modeB>   true iff metric(modeA) < metric(modeB)
//	lt:<metric>:<value>              true iff metric < value
//	gt:<metric>:<value>              true iff metric > value
//	model:<metric>:<analytic>:<tol>  true iff |sim-analytic| > tol*|analytic|
//
// Mode names in the delta form are separated by '/' because mode names
// themselves contain dashes (nt-opt, pf-off).
func ParseTarget(s string) (Target, error) {
	t := Target{raw: strings.TrimSpace(s)}
	parts := strings.Split(t.raw, ":")
	bad := func(format string, args ...interface{}) (Target, error) {
		return Target{}, fmt.Errorf("search: bad target %q: %s", s, fmt.Sprintf(format, args...))
	}
	if len(parts) < 3 {
		return bad("want kind:metric:... (kinds: delta, lt, gt, model)")
	}
	kind, metric := parts[0], parts[1]
	if metric == "" {
		return bad("empty metric name")
	}
	t.Metric = metric
	switch kind {
	case "delta":
		if len(parts) != 3 {
			return bad("want delta:<metric>:<modeA>/<modeB>")
		}
		names := strings.Split(parts[2], "/")
		if len(names) != 2 {
			return bad("want two '/'-separated mode names, got %q", parts[2])
		}
		var ok bool
		if t.ModeA, ok = sweep.ModeByName(names[0]); !ok {
			return bad("unknown mode %q (have %v)", names[0], sweep.ModeNames())
		}
		if t.ModeB, ok = sweep.ModeByName(names[1]); !ok {
			return bad("unknown mode %q (have %v)", names[1], sweep.ModeNames())
		}
		if t.ModeA.Name == t.ModeB.Name {
			return bad("delta needs two distinct modes")
		}
		t.Kind = TargetDelta
	case "lt", "gt":
		if len(parts) != 3 {
			return bad("want %s:<metric>:<value>", kind)
		}
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return bad("threshold %q: %v", parts[2], err)
		}
		t.Threshold = v
		t.Kind = TargetBelow
		if kind == "gt" {
			t.Kind = TargetAbove
		}
	case "model":
		if len(parts) != 4 {
			return bad("want model:<metric>:<analytic-metric>:<reltol>")
		}
		if parts[2] == "" {
			return bad("empty analytic metric name")
		}
		t.AnalyticMetric = parts[2]
		v, err := strconv.ParseFloat(parts[3], 64)
		if err != nil || v < 0 {
			return bad("relative tolerance %q: want a non-negative number", parts[3])
		}
		t.RelTol = v
		t.Kind = TargetModel
	default:
		return bad("unknown kind %q (want delta, lt, gt or model)", kind)
	}
	return t, nil
}

// classify evaluates the predicate on one point's simulated probe
// metrics (one entry per probe, TargetDelta order [ModeA, ModeB]).
// analytic is the surrogate's answer for the point's one probe, which
// only TargetModel reads; nil when the surrogate could not answer.
func (t Target) classify(sim []sweep.Metrics, analytic sweep.Metrics) (bool, error) {
	if len(sim) != t.Probes() {
		return false, fmt.Errorf("search: target %s: point has %d probes, want %d", t, len(sim), t.Probes())
	}
	get := func(ms sweep.Metrics, name, role string) (float64, error) {
		v, ok := ms.Get(name)
		if !ok {
			return 0, fmt.Errorf("search: target %s: %s metric %q absent from probe result", t, role, name)
		}
		return v, nil
	}
	v, err := get(sim[0], t.Metric, "simulated")
	if err != nil {
		return false, err
	}
	switch t.Kind {
	case TargetDelta:
		b, err := get(sim[1], t.Metric, "simulated")
		if err != nil {
			return false, err
		}
		return v < b, nil
	case TargetBelow:
		return v < t.Threshold, nil
	case TargetAbove:
		return v > t.Threshold, nil
	case TargetModel:
		if analytic == nil {
			return false, fmt.Errorf("search: target %s: workload has no analytic surrogate", t)
		}
		av, err := get(analytic, t.AnalyticMetric, "analytic")
		if err != nil {
			return false, err
		}
		diff := v - av
		if diff < 0 {
			diff = -diff
		}
		bound := av
		if bound < 0 {
			bound = -bound
		}
		return diff > t.RelTol*bound, nil
	}
	return false, fmt.Errorf("search: target %s: unknown kind %d", t, t.Kind)
}
