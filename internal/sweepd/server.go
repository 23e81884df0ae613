// Package sweepd is the campaign result server behind cmd/sweepd: it
// exposes one persistent content-addressed store (internal/store) to
// many concurrent HTTP clients — listing stored scenarios, serving
// results by config hash, and expanding campaigns whose warm cells
// come straight from the store while cold cells are simulated on a
// bounded worker pool and written through.
//
// API:
//
//	GET  /v1/healthz           liveness, store occupancy, simulation capacity
//	GET  /v1/scenarios         every stored record, deterministic key order
//	GET  /v1/results/{id}      one record by scenario config hash
//	POST /v1/expand            run a campaign: warm from store, simulate cold
//	GET  /v1/sync              stream records a peer is missing (replication)
//	POST /v1/admin/compact     merge the store's segments into one
//
// The form of an expand body alone fixes the encoding of its response:
// explicit → NDJSON, grid → campaign JSON.
//
// A grid (axes by name; the cross product is executed) answers the
// campaign JSON cmd/sweep writes to campaign.json, so clients can treat
// the daemon as a remote sweep. An X-Expand-Incomplete header flags a
// campaign cut short, an X-Store-Error header results that were not
// persisted.
//
// An explicit scenario list (canonical scenario keys, the dispatch
// protocol's form) answers NDJSON, one JSON object per line, sending
// each cell's result the moment it finalizes with its metrics as exact
// IEEE-754 bits. The frames are a tagged union:
//
//	{"stream":{...}}    first line: physics + scenario count
//	{"result":{...}}    one per cell, completion order
//	{"summary":{...}}   last line: counts + incomplete/store status
//
// Headers leave with the first frame, so the summary carries the
// completion and durability status the grid form puts in headers. A
// stream that ends without a summary line was truncated and must not
// be trusted.
//
// Healthz reports the daemon's simulation capacity (worker slots), the
// number of in-flight expand requests, and the physics version, so a
// dispatcher can weight shards by capacity and refuse mixed-physics
// fleets.
//
// Expands are cancellation-correct: each runs under its request
// context (plus the optional Server.ExpandTimeout deadline), so a
// client that disconnects mid-expand stops the server scheduling that
// campaign's remaining cold cells and releases its global simulation
// slots immediately; cells already simulating complete and are
// written through, cells never started come back as errors wrapping
// sweep.ErrUnstarted. The store is synced before the grid response and
// before the summary frame, so results the client has been told are
// durable survive a daemon crash.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
	"cloversim/internal/workload"
)

// DefaultMaxCells bounds one expand request when Server.MaxCells is
// unset, so a typo'd grid cannot wedge the daemon behind a million
// simulations.
const DefaultMaxCells = 4096

// ResultStore is the slice of *store.Store the server depends on,
// lifted to an interface so tests can inject durability failures
// (failed Sync) without a real broken filesystem. *store.Store
// implements it.
type ResultStore interface {
	sweep.Cache
	Lookup(id string) (store.Record, bool)
	Records() []store.Record
	Len() int
	Stats() store.Stats
	Physics() string
	Sync() error
	// Replication and maintenance surface (see sync.go): Epoch and
	// IDsSince drive /v1/sync watermarks, Compact backs the admin
	// compaction endpoint.
	Epoch() string
	IDsSince(since uint64) (ids []string, watermark uint64)
	Compact() (store.CompactStats, error)
}

var _ ResultStore = (*store.Store)(nil)

// Server serves one store. Create with New; safe for concurrent use.
// The exported fields are optional configuration: set them before the
// Handler serves traffic.
type Server struct {
	// ExpandTimeout, when positive, bounds each expand request: the
	// campaign context expires after this long, unstarted cells come
	// back as errors, and the partial response is flagged with an
	// X-Expand-Incomplete header. Zero means no server-side deadline
	// (client disconnect still cancels).
	ExpandTimeout time.Duration
	// MaxCells caps the cell count of one expand request, grid or
	// explicit form. Zero means DefaultMaxCells. The cap is advertised
	// in /v1/healthz as max_cells so dispatchers can clamp their chunk
	// sizes up front instead of discovering the limit through 400s.
	MaxCells int

	// errorLog receives response-write failures (broken pipes, encode
	// bugs) that cannot reach the client anymore.
	errorLog *log.Logger
	st       ResultStore
	eng      *sweep.Engine
	sem      chan struct{}
	inflight atomic.Int64 // expand requests currently being served
}

// New wires a server onto an open store. The runner simulates cold
// cells; workers bounds simulation concurrency globally across all
// in-flight expand requests (<= 0 means GOMAXPROCS). Results of cold
// simulations are written through to the store.
func New(st ResultStore, runner sweep.Runner, workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{errorLog: log.Default(), st: st, sem: make(chan struct{}, workers)}
	// The engine bounds workers per campaign; the semaphore bounds the
	// whole daemon, so concurrent expand requests share one simulation
	// budget instead of multiplying it. The acquire selects on the
	// request context: a cell whose client already disconnected (or
	// whose deadline passed) releases its claim on the global budget
	// immediately instead of simulating into the void.
	s.eng = sweep.NewEngine(workers, func(ctx context.Context, sc sweep.Scenario) (sweep.Metrics, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			// The cell never simulated: report it with the engine's
			// distinguished unstarted error, not as a genuine failure.
			return nil, fmt.Errorf("sweepd: waiting for a simulation slot: %w: %w", sweep.ErrUnstarted, ctx.Err())
		}
		defer func() { <-s.sem }()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweepd: simulation slot acquired after cancellation: %w: %w", sweep.ErrUnstarted, err)
		}
		return runner(ctx, sc)
	})
	s.eng.Cache = st
	return s
}

// maxCells resolves the per-expand cell cap.
func (s *Server) maxCells() int {
	if s.MaxCells > 0 {
		return s.MaxCells
	}
	return DefaultMaxCells
}

// logf reports server-side failures that have no client to return to.
func (s *Server) logf(format string, args ...any) { s.errorLog.Printf(format, args...) }

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("POST /v1/expand", s.handleExpand)
	mux.HandleFunc("GET /v1/sync", s.handleSync)
	mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
	return mux
}

// writeJSON encodes one response body. Encode failures (typically a
// client that hung up mid-body, occasionally a genuine encoding bug)
// cannot be reported to the client — the status line is gone — so
// they are logged instead of swallowed.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("sweepd: %s %s: writing response: %v", r.Method, r.URL.Path, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.writeJSON(w, r, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Health is the /v1/healthz response. Capacity and InFlight are what a
// dispatcher shards by: Capacity is the daemon's global simulation
// worker-slot count (the most cold cells it will run concurrently),
// InFlight the number of expand requests currently being served.
// Physics lets a dispatcher refuse mixed-physics fleets — results
// simulated under different physics versions must never merge into one
// campaign. MaxCells is the largest expand this daemon accepts, so a
// dispatcher clamps its chunk sizes instead of tripping 400s.
type Health struct {
	OK       bool   `json:"ok"`
	Physics  string `json:"physics"`
	Records  int    `json:"records"`
	Stats    string `json:"stats"`
	Capacity int    `json:"capacity"`
	InFlight int    `json:"inflight"`
	MaxCells int    `json:"max_cells"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, Health{
		OK:       true,
		Physics:  s.st.Physics(),
		Records:  s.st.Len(),
		Stats:    s.st.Stats().String(),
		Capacity: cap(s.sem),
		InFlight: int(s.inflight.Load()),
		MaxCells: s.maxCells(),
	})
}

// jsonMetric/jsonRecord mirror the store's wire form: decimal value
// for humans, IEEE-754 bits for clients that need the exact float.
// The decimal mirror is best-effort — JSON cannot carry NaN/Inf, so
// exactly those drop the value field (a pointer, so finite zeros stay)
// and the bits alone are authoritative; encoding NaN as a number would
// abort the whole response encode mid-body.
type jsonMetric struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value,omitempty"`
	Bits  string   `json:"bits"`
}

// toJSONMetrics renders metrics in the shared wire form used by both
// /v1/results and the explicit-expand result frames, so the two
// surfaces cannot drift.
func toJSONMetrics(ms sweep.Metrics) []jsonMetric {
	out := make([]jsonMetric, 0, len(ms))
	for _, m := range ms {
		jm := jsonMetric{
			Name: m.Name,
			Bits: fmt.Sprintf("%016x", math.Float64bits(m.Value)),
		}
		if v := m.Value; !math.IsNaN(v) && !math.IsInf(v, 0) {
			jm.Value = &v
		}
		out = append(out, jm)
	}
	return out
}

type jsonRecord struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	Machine  string       `json:"machine"`
	Workload string       `json:"workload,omitempty"`
	Mode     string       `json:"mode"`
	Ranks    int          `json:"ranks"`
	Mesh     string       `json:"mesh"`
	Threads  int          `json:"threads"`
	Seed     uint64       `json:"seed"`
	Metrics  []jsonMetric `json:"metrics,omitempty"`
}

func toJSONRecord(rec store.Record) jsonRecord {
	jr := jsonRecord{
		ID:       rec.ID,
		Key:      rec.Scenario.Key(),
		Machine:  rec.Scenario.Machine,
		Workload: rec.Scenario.Workload,
		Mode:     rec.Scenario.Mode.Name,
		Ranks:    rec.Scenario.Ranks,
		Mesh:     rec.Scenario.Mesh.String(),
		Threads:  rec.Scenario.Threads,
		Seed:     rec.Scenario.Seed,
	}
	jr.Metrics = toJSONMetrics(rec.Metrics)
	return jr
}

type scenariosResponse struct {
	Physics   string       `json:"physics"`
	Count     int          `json:"count"`
	Scenarios []jsonRecord `json:"scenarios"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	recs := s.st.Records()
	resp := scenariosResponse{
		Physics:   s.st.Physics(),
		Count:     len(recs),
		Scenarios: make([]jsonRecord, 0, len(recs)),
	}
	for _, rec := range recs {
		resp.Scenarios = append(resp.Scenarios, toJSONRecord(rec))
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.st.Lookup(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no stored result for config hash %q under physics %s", id, s.st.Physics())
		return
	}
	s.writeJSON(w, r, http.StatusOK, toJSONRecord(rec))
}

// GridSpec is the expand request body: the same axes cmd/sweep's flags
// declare, with modes and meshes by name — or, in its explicit form,
// canonical scenario keys to execute verbatim. It is the shared
// sweep.GridSpec, so the CLI and the HTTP API validate grids through
// one code path.
type GridSpec = sweep.GridSpec

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var spec GridSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad grid spec: %v", err)
		return
	}
	var scenarios []sweep.Scenario
	explicit := spec.IsExplicit()
	if explicit {
		// Explicit form: the dispatch protocol hands this worker cells
		// it has never seen, as canonical keys. Malformed keys and
		// mixed-form specs are client errors; per-scenario resolution
		// failures (unknown machine, bad ranks) surface as per-cell
		// results, exactly as in a grid expand.
		var err error
		if scenarios, err = spec.Explicit(); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		grid, err := spec.Resolve(workload.ValidateAxes)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if n, limit := grid.Size(), s.maxCells(); n > limit {
			s.writeError(w, r, http.StatusBadRequest, "grid has %d cells, limit %d", n, limit)
			return
		}
		scenarios = grid.Expand()
	}
	if n, limit := len(scenarios), s.maxCells(); n > limit {
		s.writeError(w, r, http.StatusBadRequest, "%d scenarios, limit %d", n, limit)
		return
	}
	// The campaign runs under the request context: a client that
	// disconnects mid-expand stops cold-cell scheduling instead of
	// simulating the rest of the grid into a dead socket, and the
	// per-request deadline (when configured) bounds how long one grid
	// may hold simulation slots.
	ctx := r.Context()
	if s.ExpandTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.ExpandTimeout)
		defer cancel()
	}
	if explicit {
		s.expandStream(w, ctx, scenarios)
		return
	}
	c, sum := s.expand(ctx, scenarios, nil)
	w.Header().Set("Content-Type", "application/json")
	if sum.StoreError != "" {
		// The campaign is correct — the durability loss is server-side.
		// Discarding computed results would only force clients into a
		// re-simulation loop, so serve them and flag the loss.
		w.Header().Set("X-Store-Error", sum.StoreError)
	}
	if sum.Incomplete != "" {
		// Cancelled mid-grid (deadline hit, or client gone — then
		// nobody reads this): the body is a partial campaign whose
		// unstarted cells carry errors.
		w.Header().Set("X-Expand-Incomplete", sum.Incomplete)
	}
	w.WriteHeader(http.StatusOK)
	if err := (sweep.JSONEmitter{Indent: true}).Emit(w, c); err != nil {
		s.logf("sweepd: POST /v1/expand: writing campaign: %v", err)
	}
}

// expand is the core of both expand forms: it runs the campaign on the
// shared engine (progress is the campaign's hook) with a loop memo of
// its own, persists it, and reports its counts, completion and
// durability status.
func (s *Server) expand(ctx context.Context, scenarios []sweep.Scenario, progress func(done, total int, r sweep.Result)) (sweep.Campaign, expandSummary) {
	c := s.eng.Run(trace.WithMemo(ctx, trace.NewMemo()), scenarios, progress)
	sum := expandSummary{Scenarios: len(c.Results)}
	for _, res := range c.Results {
		switch {
		case res.Err == nil:
			sum.OK++
		case errors.Is(res.Err, sweep.ErrUnstarted):
			sum.Unstarted++
		default:
			sum.Failed++
		}
	}
	if c.Interrupted() {
		// Keyed on the campaign, not ctx.Err(): a deadline that fires
		// after the last cell finalized did not cost the client anything.
		sum.Incomplete = "campaign cancelled"
		if err := ctx.Err(); err != nil {
			sum.Incomplete = err.Error()
		}
	}
	if err := s.persist(c); err != nil {
		s.logf("sweepd: POST /v1/expand: store: %v", err)
		sum.StoreError = "store writes failed; results not persisted"
	}
	return c, sum
}

// persist enforces durability before acknowledgement: a response
// without a store-error signal asserts every result in it is durable.
// The engine memoizer can serve results whose write-through failed —
// in this request (CacheErr) or an earlier one — so verify each
// successful cell is indexed and, since the metrics are in hand,
// repair misses by retrying the Put (a transient disk-full must not
// condemn the cell to a store error, let alone for the daemon's
// lifetime). Post-repair verification subsumes CacheErr: only a cell
// that is STILL not persistable flags the loss. The Sync runs after
// the repairs so they ride the same pre-response fsync; it is free on
// a clean store (the all-warm steady state) and re-attempts a fsync an
// earlier request failed rather than vouching for it.
func (s *Server) persist(c sweep.Campaign) error {
	var storeErr error
	for _, res := range c.Results {
		if res.Err != nil {
			continue
		}
		if _, ok := s.st.Lookup(res.ID); ok {
			continue
		}
		if perr := s.st.Put(res.Scenario, res.Metrics); perr != nil {
			storeErr = errors.Join(storeErr, fmt.Errorf("sweepd: result %s served from memory but not persistable: %w", res.ID, perr))
		}
	}
	if err := s.st.Sync(); err != nil {
		storeErr = errors.Join(storeErr, err)
	}
	if c.CacheErr != nil {
		// Worth a trace even when repaired: write-throughs failing at
		// all is an operational smell.
		s.logf("sweepd: POST /v1/expand: write-through: %v", c.CacheErr)
	}
	return storeErr
}

// streamFrame is one NDJSON line of an explicit expand: exactly one
// of the fields is set, making each line self-describing.
type streamFrame struct {
	Stream  *streamHeader  `json:"stream,omitempty"`
	Result  *executeResult `json:"result,omitempty"`
	Summary *expandSummary `json:"summary,omitempty"`
}

// streamHeader opens the stream before any cell has finished, letting
// clients fail fast on a physics mismatch instead of discovering it
// after the last cell.
type streamHeader struct {
	Physics   string `json:"physics"`
	Scenarios int    `json:"scenarios"`
}

// expandSummary is an expand's outcome: the summary frame that closes
// an explicit stream, and the source of the grid form's headers.
// ok + failed + unstarted == scenarios; unstarted cells (cancelled
// before they ran) are not failures. Incomplete and StoreError are the
// X-Expand-Incomplete and X-Store-Error header values.
type expandSummary struct {
	Scenarios  int    `json:"scenarios"`
	OK         int    `json:"ok"`
	Failed     int    `json:"failed"`
	Unstarted  int    `json:"unstarted"`
	Incomplete string `json:"incomplete,omitempty"`
	StoreError string `json:"store_error,omitempty"`
}

// expandStream serves an explicit expand as NDJSON frames, emitting
// each cell the moment the engine finalizes it. Results stream before
// the durability repair can run, so a result frame is not an
// acknowledgement of persistence; the summary's store_error is. The
// engine serializes the campaign's hook, so the stream needs no lock of
// its own.
func (s *Server) expandStream(w http.ResponseWriter, ctx context.Context, scenarios []sweep.Scenario) {
	out := newNDJSONStream(w)
	out.frame(streamFrame{Stream: &streamHeader{Physics: s.st.Physics(), Scenarios: len(scenarios)}})
	_, sum := s.expand(ctx, scenarios, func(done, total int, res sweep.Result) {
		er := toExecuteResult(res)
		out.frame(streamFrame{Result: &er})
	})
	out.frame(streamFrame{Summary: &sum})
	if out.err != nil {
		s.logf("sweepd: POST /v1/expand: writing stream: %v", out.err)
	}
}

// ndjsonStream answers a request with NDJSON frames: one JSON value
// per line, each flushed as it is written.
type ndjsonStream struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	err error // the first write failure; nothing is written after it
}

// newNDJSONStream sends the 200 status and the NDJSON content type.
func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &ndjsonStream{w: w, rc: http.NewResponseController(w)}
}

// frame writes f as one line and flushes it.
func (out *ndjsonStream) frame(f any) {
	if out.err != nil {
		return
	}
	b, err := json.Marshal(f)
	if err == nil {
		b = append(b, '\n')
		_, err = out.w.Write(b)
	}
	if err == nil {
		// Flush per frame: the point of the stream is that the client
		// sees a frame the moment it exists, not when the buffer
		// happens to fill. A writer without flush support (plain
		// buffered proxy) still gets correct bytes.
		if ferr := out.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
			err = ferr
		}
	}
	// A failure means the client is gone (or the connection broke):
	// remember it and stop writing. The work behind the stream keeps
	// running under its own context — cancellation is the request
	// context's job, not the response writer's.
	out.err = err
}

// executeResult is one cell of an explicit expand. Metric values carry
// their IEEE-754 bits so the dispatcher's merged campaign is bit-exact
// with a local run; Unstarted distinguishes cells this worker was
// cancelled out of (re-dispatchable) from genuine simulation failures
// (final).
type executeResult struct {
	ID        string       `json:"id"`
	Key       string       `json:"key"`
	Unstarted bool         `json:"unstarted,omitempty"`
	Error     string       `json:"error,omitempty"`
	Metrics   []jsonMetric `json:"metrics,omitempty"`
}

// toExecuteResult renders one finalized cell in the exact-bits wire
// form.
func toExecuteResult(res sweep.Result) executeResult {
	er := executeResult{ID: res.ID, Key: res.Scenario.Key()}
	if res.Err != nil {
		er.Error = res.Err.Error()
		er.Unstarted = errors.Is(res.Err, sweep.ErrUnstarted)
	} else {
		er.Metrics = toJSONMetrics(res.Metrics)
	}
	return er
}
