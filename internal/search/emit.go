package search

import (
	"encoding/json"
	"fmt"
	"io"

	"cloversim/internal/csvout"
)

// Emitters render an Outcome byte-stably: the same outcome always
// renders identically, across runs, GOMAXPROCS values and backends —
// the frontier analogue of the sweep emitters' contract.

// trackContext renders a track's non-axis identity columns; the
// refined axis column carries "*" and a TargetDelta track's mode column
// carries the predicate's mode pair.
func (o *Outcome) trackContext(t TrackResult) (machine, workload, mode, ranks, mesh, threads string) {
	machine = t.Base.Machine
	workload = t.Base.Workload
	mode = t.Base.Mode.Name
	if o.Target.Kind == TargetDelta {
		mode = o.Target.ModeA.Name + "/" + o.Target.ModeB.Name
	}
	ranks = fmt.Sprintf("%d", t.Base.Ranks)
	mesh = t.Base.Mesh.String()
	threads = fmt.Sprintf("%d", t.Base.Threads)
	switch o.Axis {
	case AxisRanks:
		ranks = "*"
	case AxisThreads:
		threads = "*"
	case AxisMesh:
		mesh = "*"
	}
	return
}

// Table renders the outcome as one csvout table: interval rows
// (kind=frontier) carry the bracketing endpoints and their
// classifications, cell rows (kind=cell) carry every visited point in
// grid order — track order first, axis value ascending within a track.
func (o *Outcome) Table() *csvout.Table {
	t := csvout.New("kind", "machine", "workload", "mode", "ranks", "mesh", "threads",
		"axis", "value", "class", "lo", "hi", "lo_class", "hi_class", "ids")
	for _, tr := range o.Tracks {
		machine, workload, mode, ranks, mesh, threads := o.trackContext(tr)
		for _, iv := range tr.Intervals {
			t.Add("frontier", machine, workload, mode, ranks, mesh, threads,
				string(o.Axis), "", "",
				iv.Lo.format(o.Axis), iv.Hi.format(o.Axis),
				iv.LoClass, iv.HiClass, "")
		}
		for _, p := range tr.Points {
			ids := ""
			for i, r := range p.Results {
				if i > 0 {
					ids += "+"
				}
				ids += r.ID
			}
			t.Add("cell", machine, workload, mode, ranks, mesh, threads,
				string(o.Axis), p.Value.format(o.Axis), p.Class,
				"", "", "", "", ids)
		}
	}
	return t
}

// CSVEmitter writes the outcome table as CSV.
type CSVEmitter struct{}

// Emit renders o to w.
func (CSVEmitter) Emit(w io.Writer, o *Outcome) error { return o.Table().WriteCSV(w) }

// jsonValue/jsonCell/jsonInterval/jsonTrack/jsonOutcome fix the field
// order so the JSON frontier artifact is deterministic, exactly like
// the campaign JSON emitters.
type jsonCell struct {
	Value string   `json:"value"`
	Class bool     `json:"class"`
	IDs   []string `json:"ids"`
}

type jsonInterval struct {
	Lo      string `json:"lo"`
	Hi      string `json:"hi"`
	LoClass bool   `json:"lo_class"`
	HiClass bool   `json:"hi_class"`
}

type jsonTrack struct {
	Machine   string         `json:"machine"`
	Workload  string         `json:"workload,omitempty"`
	Mode      string         `json:"mode"`
	Ranks     string         `json:"ranks"`
	Mesh      string         `json:"mesh"`
	Threads   string         `json:"threads"`
	Intervals []jsonInterval `json:"intervals"`
	Cells     []jsonCell     `json:"cells"`
}

type jsonOutcome struct {
	Axis        string      `json:"axis"`
	Target      string      `json:"target"`
	Rounds      int         `json:"rounds"`
	Visited     int         `json:"visited"`
	Frontier    int         `json:"frontier"`
	Interrupted bool        `json:"interrupted,omitempty"`
	Tracks      []jsonTrack `json:"tracks"`
}

// JSONEmitter writes the outcome as deterministic JSON, indented by
// two spaces.
type JSONEmitter struct{}

// Emit renders o to w.
func (JSONEmitter) Emit(w io.Writer, o *Outcome) error {
	doc := jsonOutcome{
		Axis:     string(o.Axis),
		Target:   o.Target.String(),
		Rounds:   o.Rounds,
		Visited:  o.Visited,
		Frontier: o.FrontierCount(),

		Interrupted: o.Interrupted,
		Tracks:      make([]jsonTrack, 0, len(o.Tracks)),
	}
	for _, tr := range o.Tracks {
		machine, workload, mode, ranks, mesh, threads := o.trackContext(tr)
		jt := jsonTrack{
			Machine: machine, Workload: workload, Mode: mode,
			Ranks: ranks, Mesh: mesh, Threads: threads,
			Intervals: []jsonInterval{},
			Cells:     []jsonCell{},
		}
		for _, iv := range tr.Intervals {
			jt.Intervals = append(jt.Intervals, jsonInterval{
				Lo: iv.Lo.format(o.Axis), Hi: iv.Hi.format(o.Axis),
				LoClass: iv.LoClass, HiClass: iv.HiClass,
			})
		}
		for _, p := range tr.Points {
			jc := jsonCell{Value: p.Value.format(o.Axis), Class: p.Class, IDs: []string{}}
			for _, r := range p.Results {
				jc.IDs = append(jc.IDs, r.ID)
			}
			jt.Cells = append(jt.Cells, jc)
		}
		doc.Tracks = append(doc.Tracks, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Summary is the one-line terminal digest of an adaptive campaign.
func (o *Outcome) Summary() string {
	s := fmt.Sprintf("adaptive: axis=%s target=%s rounds=%d visited=%d cells frontier=%d intervals",
		o.Axis, o.Target, o.Rounds, o.Visited, o.FrontierCount())
	if o.Interrupted {
		s += " (interrupted)"
	}
	return s
}
