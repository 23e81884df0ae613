package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"cloversim/internal/asciiplot"
	"cloversim/internal/csvout"
)

// The emitters (CSVEmitter, JSONEmitter, SummaryEmitter) see results
// in grid order and must be byte-stable: the same campaign always
// renders identically.

// Table renders the campaign as a csvout table: scenario identity
// columns followed by the union of metric columns (first-appearance
// order); failed scenarios carry their error in the status column and
// blank metric cells. Cache provenance (Result.Cached) deliberately
// does not appear: a resumed campaign served from the persistent store
// must render byte-identically to the cold run that populated it.
func (c Campaign) Table() *csvout.Table {
	metrics := c.MetricNames()
	header := append([]string{"id", "machine", "workload", "mode", "ranks", "mesh", "threads", "status"}, metrics...)
	t := csvout.New(header...)
	for _, r := range c.Results {
		status := "ok"
		if r.Err != nil {
			status = "error: " + r.Err.Error()
		}
		row := []interface{}{r.ID, r.Scenario.Machine, r.Scenario.Workload, r.Scenario.Mode.Name,
			r.Scenario.Ranks, r.Scenario.Mesh.String(), r.Scenario.Threads, status}
		for _, name := range metrics {
			if v, ok := r.Metrics.Get(name); ok {
				row = append(row, v)
			} else {
				row = append(row, "")
			}
		}
		t.Add(row...)
	}
	return t
}

// CSVEmitter writes the campaign table as CSV.
type CSVEmitter struct{}

func (CSVEmitter) Emit(w io.Writer, c Campaign) error { return c.Table().WriteCSV(w) }

// jsonMetric/jsonResult/jsonCampaign fix the field order (struct
// marshaling is deterministic; metrics stay an ordered array). Value
// is a pointer because JSON cannot carry NaN/±Inf: a non-finite metric
// — which the sweepd wire layer deliberately supports via IEEE-754
// bits — encodes as a null decimal mirror plus an authoritative Bits
// field, instead of aborting the whole campaign encode with
// encoding/json's "unsupported value". Finite metrics carry no Bits
// field, so campaigns without non-finite values (the golden fixtures)
// encode byte-identically to the historical form.
type jsonMetric struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value"`
	Bits  string   `json:"bits,omitempty"`
}

// toJSONMetric renders one metric in the campaign JSON form.
func toJSONMetric(m Metric) jsonMetric {
	jm := jsonMetric{Name: m.Name}
	if v := m.Value; math.IsNaN(v) || math.IsInf(v, 0) {
		jm.Bits = fmt.Sprintf("%016x", math.Float64bits(v))
	} else {
		jm.Value = &v
	}
	return jm
}

// jsonResult carries no cache-provenance field: warm (store-served)
// and cold campaigns must encode byte-identically.
type jsonResult struct {
	ID       string       `json:"id"`
	Machine  string       `json:"machine"`
	Workload string       `json:"workload,omitempty"`
	Mode     string       `json:"mode"`
	Ranks    int          `json:"ranks"`
	Mesh     string       `json:"mesh"`
	Threads  int          `json:"threads"`
	Seed     uint64       `json:"seed"`
	Error    string       `json:"error,omitempty"`
	Metrics  []jsonMetric `json:"metrics,omitempty"`
}

type jsonCampaign struct {
	Scenarios int          `json:"scenarios"`
	Failed    int          `json:"failed"`
	Results   []jsonResult `json:"results"`
}

// JSONEmitter writes the campaign as deterministic JSON (fixed field
// order, metrics as an ordered array).
type JSONEmitter struct {
	Indent bool
}

func (e JSONEmitter) Emit(w io.Writer, c Campaign) error {
	out := jsonCampaign{
		Scenarios: len(c.Results),
		Failed:    len(c.Failed()),
		Results:   make([]jsonResult, 0, len(c.Results)),
	}
	for _, r := range c.Results {
		out.Results = append(out.Results, toJSONResult(r))
	}
	enc := json.NewEncoder(w)
	if e.Indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(out)
}

// toJSONResult renders one result in the campaign JSON form.
func toJSONResult(r Result) jsonResult {
	jr := jsonResult{
		ID:       r.ID,
		Machine:  r.Scenario.Machine,
		Workload: r.Scenario.Workload,
		Mode:     r.Scenario.Mode.Name,
		Ranks:    r.Scenario.Ranks,
		Mesh:     r.Scenario.Mesh.String(),
		Threads:  r.Scenario.Threads,
		Seed:     r.Scenario.Seed,
	}
	if r.Err != nil {
		jr.Error = r.Err.Error()
	}
	for _, m := range r.Metrics {
		jr.Metrics = append(jr.Metrics, toJSONMetric(m))
	}
	return jr
}

// SummaryEmitter renders a terminal summary: completion counts plus an
// ASCII chart of one metric, one series per evasion mode, x = scenario
// index within the mode (grid order).
type SummaryEmitter struct {
	Metric string // default: first metric of the campaign
}

func (e SummaryEmitter) Emit(w io.Writer, c Campaign) error {
	// ok counts cache-served results too: summary output, like every
	// emitter, must not distinguish warm campaigns from cold ones.
	ok, failed := 0, 0
	for _, r := range c.Results {
		if r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	fmt.Fprintf(w, "campaign: %d scenarios (%d ok, %d failed)\n",
		len(c.Results), ok, failed)
	for _, r := range c.Failed() {
		fmt.Fprintf(w, "  FAILED %s %s: %v\n", r.ID, r.Scenario.Label(), r.Err)
	}

	metric := e.Metric
	if metric == "" {
		names := c.MetricNames()
		if len(names) == 0 {
			return nil
		}
		metric = names[0]
	}
	var series []asciiplot.Series
	idx := map[string]int{}
	for _, r := range c.Results {
		v, found := r.Metrics.Get(metric)
		if !found {
			continue
		}
		name := r.Scenario.Mode.Name
		if r.Scenario.Workload != "" {
			name = r.Scenario.Workload + "/" + name
		}
		i, seen := idx[name]
		if !seen {
			i = len(series)
			idx[name] = i
			series = append(series, asciiplot.Series{Name: name})
		}
		s := &series[i]
		s.X = append(s.X, float64(len(s.X)))
		s.Y = append(s.Y, v)
	}
	if len(series) == 0 {
		return nil
	}
	_, err := io.WriteString(w, asciiplot.Plot{
		Title:  metric + " by mode (x = scenario index)",
		XLabel: "scenario",
		Series: series,
	}.Render())
	return err
}

// ProgressLine formats one engine progress callback for terminal use.
func ProgressLine(done, total int, r Result) string {
	status := "ok"
	switch {
	case r.Err != nil:
		status = "ERROR: " + r.Err.Error()
	case r.Cached:
		status = "cached"
	}
	return fmt.Sprintf("[%*d/%d] %s %-28s %s", len(fmt.Sprint(total)), done, total, r.ID, r.Scenario.Label(), status)
}
