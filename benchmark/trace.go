package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

// span is one timed call at a layer boundary. Parent is 0 for a root:
// a traced campaign or a layer replay.
type span struct {
	ID, Parent int64
	Name       string
	Detail     string        // the workload of a workload.run span
	Start, End time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. It also
// keeps every cell its runner simulated, the inputs of the layer
// replays.
type tracer struct {
	epoch time.Time
	root  atomic.Int64 // the root span in flight: parent of in-run spans
	// open counts server-side spans still running, so a campaign span
	// ends only after the expands it caused.
	open sync.WaitGroup

	mu    sync.Mutex
	spans []span
	cells map[string]simulated // by scenario ID
}

type simulated struct {
	sc sweep.Scenario
	m  sweep.Metrics
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cells: map[string]simulated{}}
}

func (t *tracer) begin(name, detail string, parent int64) int64 {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Detail: detail, Start: now, End: -1})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(name string, parent int64, fn func()) time.Duration {
	id := t.begin(name, "", parent)
	fn()
	return t.end(id)
}

// snapshot returns the finished spans and the simulated cells in key order.
func (t *tracer) snapshot() ([]span, []simulated) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cells := make([]simulated, 0, len(t.cells))
	for _, c := range t.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].sc.Key() < cells[j].sc.Key() })
	return append([]span(nil), t.spans...), cells
}

// probes is the instrumentation switch shared by the runner, the
// sweepd middleware and the store wrapper: spans are recorded only
// while a tracer is installed, so untraced campaigns pay one atomic
// load per call.
type probes struct{ tr atomic.Pointer[tracer] }

// runner wraps the production scenario runner in workload.run spans.
func (p *probes) runner() func(context.Context, sweep.Scenario) (sweep.Metrics, error) {
	return func(ctx context.Context, sc sweep.Scenario) (sweep.Metrics, error) {
		t := p.tr.Load()
		if t == nil {
			return cloversim.RunScenarioContext(ctx, sc)
		}
		id := t.begin("workload.run", sc.Workload, t.root.Load())
		m, err := cloversim.RunScenarioContext(ctx, sc)
		t.end(id)
		if err == nil {
			t.mu.Lock()
			t.cells[sc.ID()] = simulated{sc, m}
			t.mu.Unlock()
		}
		return m, err
	}
}

// server is one in-process sweepd on loopback with one simulation
// slot, traced at its HTTP handler and at its store.
type server struct {
	p    *probes
	st   *store.Store
	next http.Handler
	http *httptest.Server
	cur  atomic.Int64 // the expand span in flight
}

func startServer(p *probes, st *store.Store) *server {
	s := &server{p: p, st: st}
	s.next = sweepd.New(probedStore{st, s}, p.runner(), 1).Handler()
	s.http = httptest.NewServer(s)
	return s
}

// ServeHTTP is the tracing middleware: one sweepd.expand span per
// expand request.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := s.p.tr.Load()
	if t == nil || r.URL.Path != "/v1/expand" {
		s.next.ServeHTTP(w, r)
		return
	}
	t.open.Add(1)
	defer t.open.Done()
	id := t.begin("sweepd.expand", "", t.root.Load())
	s.cur.Store(id)
	s.next.ServeHTTP(w, r)
	t.end(id)
}

// close stops the server, waiting for its connections, then closes its store.
func (s *server) close() error {
	s.http.Close()
	return s.st.Close()
}

// probedStore is the server's ResultStore: the real store with
// sweepd.store.get spans around Get.
type probedStore struct {
	*store.Store
	s *server
}

var _ sweepd.ResultStore = probedStore{}

func (ps probedStore) Get(sc sweep.Scenario) (sweep.Metrics, bool) {
	t := ps.s.p.tr.Load()
	if t == nil {
		return ps.Store.Get(sc)
	}
	id := t.begin("sweepd.store.get", "", ps.s.cur.Load())
	m, ok := ps.Store.Get(sc)
	t.end(id)
	return m, ok
}

// selfTimes maps each span to its duration minus the part of it that
// its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		lo, hi := s.Start, s.Start // the merged interval being grown
		for _, c := range cs {
			start, end := max(c.Start, s.Start), min(c.End, s.End)
			if start > hi {
				covered += hi - lo
				lo, hi = start, start
			}
			hi = max(hi, end)
		}
		covered += hi - lo
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeChrome writes the spans as Chrome Trace Event JSON, which
// Perfetto and chrome://tracing open. Roots run on lane 0; the
// children of a root take the first lane free of overlap, and deeper
// spans share their parent's lane so the viewer nests them.
func writeChrome(path string, spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	order := append([]span(nil), spans...)
	sort.Slice(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	lane := map[int64]int{}
	busyUntil := map[int64][]time.Duration{} // per root: the end of each lane's last span
	for _, s := range order {
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			lane[s.ID] = 0
		case p.Parent != 0:
			lane[s.ID] = lane[p.ID]
		default:
			ends := busyUntil[p.ID]
			l := 0
			for l < len(ends) && ends[l] > s.Start {
				l++
			}
			if l == len(ends) {
				ends = append(ends, 0)
			}
			ends[l] = s.End
			busyUntil[p.ID] = ends
			lane[s.ID] = l + 1
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane[s.ID], Args: args,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
