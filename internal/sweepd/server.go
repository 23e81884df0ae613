// Package sweepd is the fleet worker behind cmd/sweepd: it serves one
// persistent content-addressed store (internal/store) to the dispatch
// backend of cmd/sweep -workers. An expand hands the worker cells as
// canonical scenario keys; warm cells come straight from the store,
// cold cells are simulated on a bounded worker pool and written
// through.
//
// API:
//
//	GET  /v1/healthz           liveness, store occupancy, simulation capacity
//	POST /v1/expand            run scenario keys: warm from store, simulate cold
//	POST /v1/admin/compact     merge the store's segments into one
//
// An expand body is {"scenarios": [<canonical key>, ...]} and nothing
// else: any other field, or any data after the object, is a 400 that
// names this form. The response is NDJSON, one JSON object per line,
// sending each cell's result the moment it finalizes. The frames are a
// tagged union:
//
//	{"stream":{...}}    first line: physics + scenario count
//	{"result":{...}}    one per cell, completion order
//	{"summary":{...}}   last line: counts + incomplete/store status
//
// A success frame carries the cell's store record, the object
// store.EncodeRecord writes for it (metrics as exact IEEE-754 bits), so
// the client checks it with store.DecodeRecord, the gate every stored
// record passes. A failure frame carries the error and whether the
// cell never started.
//
// Headers leave with the first frame, so the summary carries the
// completion and durability status. A stream that ends without a
// summary line was truncated and must not be trusted.
//
// Healthz reports the daemon's simulation capacity (worker slots), the
// number of in-flight expand requests, and the physics version, so a
// dispatcher can weight shards by capacity and refuse mixed-physics
// fleets.
//
// Expands are cancellation-correct: each runs under its request
// context (plus the optional Server.ExpandTimeout deadline), so a
// client that disconnects mid-expand stops the server scheduling that
// request's remaining cold cells and releases its global simulation
// slots immediately; cells already simulating complete and are
// written through, cells never started come back as errors wrapping
// sweep.ErrUnstarted. The store is synced before the summary frame,
// so results the client has been told are durable survive a daemon
// crash.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
)

// DefaultMaxCells bounds one expand request when Server.MaxCells is
// unset, so one request cannot wedge the daemon behind a million
// simulations.
const DefaultMaxCells = 4096

// keyBytes is the expand body allowance per scenario, so the body cap
// grows with MaxCells. The longest canonical key (registry names at their
// longest, every numeric field at its int64 extreme) is about 250 bytes.
const keyBytes = 512

// ResultStore is the slice of *store.Store the server depends on,
// lifted to an interface so tests can inject durability failures
// (failed Sync) without a real broken filesystem. *store.Store
// implements it.
type ResultStore interface {
	sweep.Cache
	Len() int
	Stats() store.Stats
	Physics() string
	Sync() error
	Compact() (store.CompactStats, error)
}

var _ ResultStore = (*store.Store)(nil)

// Server serves one store. Create with New; safe for concurrent use.
// The exported fields are optional configuration: set them before the
// Handler serves traffic.
type Server struct {
	// ExpandTimeout, when positive, bounds each expand request: the
	// campaign context expires after this long, unstarted cells come
	// back as errors, and the summary frame flags the stream
	// incomplete. Zero means no server-side deadline (client
	// disconnect still cancels).
	ExpandTimeout time.Duration
	// MaxCells caps the scenario count of one expand request. Zero
	// means DefaultMaxCells. The cap is advertised in /v1/healthz as
	// max_cells so dispatchers can clamp their chunk sizes up front
	// instead of discovering the limit through 400s.
	MaxCells int

	// errorLog receives response-write failures (broken pipes, encode
	// bugs) that cannot reach the client anymore.
	errorLog *log.Logger
	st       ResultStore
	eng      *sweep.Engine
	memo     *trace.Memo // the loop memo every expand shares
	sem      chan struct{}
	inflight atomic.Int64 // expand requests currently being served
}

// New wires a server onto an open store. The runner simulates cold
// cells; workers bounds simulation concurrency globally across all
// in-flight expand requests (<= 0 means GOMAXPROCS). Results of cold
// simulations are written through to the store. Every expand runs
// under one loop memo that lives as long as the server, as cmd/sweep
// and cmd/experiments keep one per invocation: the chunks a fleet
// campaign sends a worker share their loop replays, and the memo's
// entry cap bounds it.
func New(st ResultStore, runner sweep.Runner, workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{errorLog: log.Default(), st: st, memo: trace.NewMemo(), sem: make(chan struct{}, workers)}
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
	mux.HandleFunc("POST /v1/expand", s.handleExpand)
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

// handleCompact is the admin trigger for store compaction. The daemon
// owns its store directory exclusively, so this is the safe way to
// compact a live store (cmd/sweep -store-compact is for offline ones).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	cs, err := s.st.Compact()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	s.logf("sweepd: POST /v1/admin/compact: %s", cs)
	s.writeJSON(w, r, http.StatusOK, cs)
}

// expandRequest is the body of POST /v1/expand: canonical scenario
// keys (sweep.Scenario.Key) to execute verbatim, the dispatch
// protocol's way of handing a worker cells it has never seen. Every
// key, refined numeric values no preset list contains included, parses
// back to an identical scenario.
type expandRequest struct {
	Scenarios []string `json:"scenarios"`
}

// scenarios parses the keys, rejecting an empty list, a malformed key
// and numeric values no runner accepts (sweep.Scenario.CheckValues).
// Per-scenario resolution failures (unknown machine, more ranks than
// cores) are not request errors: they come back as per-cell results.
// Duplicate keys stay, position i in and out; the engine dedupes them.
func (req expandRequest) scenarios() ([]sweep.Scenario, error) {
	if len(req.Scenarios) == 0 {
		return nil, errors.New("no scenarios")
	}
	out := make([]sweep.Scenario, len(req.Scenarios))
	for i, key := range req.Scenarios {
		sc, err := sweep.ParseKey(key)
		if err == nil {
			err = sc.CheckValues()
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		out[i] = sc
	}
	return out, nil
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var req expandRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.maxCells())*keyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the request object")
		}
	}
	var scenarios []sweep.Scenario
	if err == nil {
		scenarios, err = req.scenarios()
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, `bad expand request: %v; want {"scenarios": [...]} listing canonical scenario keys`, err)
		return
	}
	if n, limit := len(scenarios), s.maxCells(); n > limit {
		s.writeError(w, r, http.StatusBadRequest, "%d scenarios, limit %d", n, limit)
		return
	}
	// The campaign runs under the request context: a client that
	// disconnects mid-expand stops cold-cell scheduling instead of
	// simulating the rest of the request into a dead socket, and the
	// per-request deadline (when configured) bounds how long one
	// request may hold simulation slots.
	ctx := r.Context()
	if s.ExpandTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.ExpandTimeout)
		defer cancel()
	}
	s.expand(ctx, w, scenarios)
}

// expand runs the scenarios on the shared engine under the server's
// loop memo and answers with NDJSON frames, emitting each cell the
// moment the engine finalizes it. Results stream before the durability
// repair can run, so a result frame is not an acknowledgement of
// persistence; the summary's store_error is. The engine serializes the
// campaign's hook, so the stream needs no lock of its own.
func (s *Server) expand(ctx context.Context, w http.ResponseWriter, scenarios []sweep.Scenario) {
	out := newNDJSONStream(w)
	out.frame(streamFrame{Stream: &streamHeader{Physics: s.st.Physics(), Scenarios: len(scenarios)}})
	c := s.eng.Run(trace.WithMemo(ctx, s.memo), scenarios, func(done, total int, res sweep.Result) {
		er := s.toExecuteResult(res)
		out.frame(streamFrame{Result: &er})
	})
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
		// The results are correct; the durability loss is server-side.
		s.logf("sweepd: POST /v1/expand: store: %v", err)
		sum.StoreError = "store writes failed; results not persisted"
	}
	out.frame(streamFrame{Summary: &sum})
	if out.err != nil {
		s.logf("sweepd: POST /v1/expand: writing stream: %v", out.err)
	}
}

// persist enforces durability before acknowledgement: a summary
// without a store error asserts every result in the stream is durable.
// A cell whose write-through failed in this request (CacheErr) was
// streamed but is not in the store, so verify each freshly simulated
// cell is indexed and, since the metrics are in hand, repair misses by
// retrying the Put (a transient disk-full must not condemn the cell to
// a store error). Post-repair verification subsumes CacheErr: only a
// cell that is STILL not persistable flags the loss. The Sync runs after
// the repairs so they ride the same pre-summary fsync; it is free on
// a clean store (the all-warm steady state) and re-attempts a fsync an
// earlier request failed rather than vouching for it.
func (s *Server) persist(c sweep.Campaign) error {
	var storeErr error
	for _, res := range c.Results {
		if res.Err != nil || res.Cached {
			// A cached result came from the store, or copies a cell
			// this loop checks.
			continue
		}
		if _, ok := s.st.Get(res.Scenario); ok {
			continue
		}
		if perr := s.st.Put(res.Scenario, res.Metrics); perr != nil {
			storeErr = errors.Join(storeErr, fmt.Errorf("sweepd: result %s not persistable: %w", res.ID, perr))
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

// streamFrame is one NDJSON line of an expand: exactly one of the
// fields is set, making each line self-describing.
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

// expandSummary is the frame that closes an expand stream with its
// outcome. ok + failed + unstarted == scenarios; unstarted cells
// (cancelled before they ran) are not failures. Incomplete flags a
// request cut short, StoreError results that were not persisted.
type expandSummary struct {
	Scenarios  int    `json:"scenarios"`
	OK         int    `json:"ok"`
	Failed     int    `json:"failed"`
	Unstarted  int    `json:"unstarted"`
	Incomplete string `json:"incomplete,omitempty"`
	StoreError string `json:"store_error,omitempty"`
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

// executeResult is one cell of an expand: a success carries the cell's
// store record, a failure its error. Unstarted distinguishes cells this
// worker was cancelled out of (re-dispatchable) from genuine simulation
// failures (final).
type executeResult struct {
	ID        string          `json:"id"`
	Unstarted bool            `json:"unstarted,omitempty"`
	Error     string          `json:"error,omitempty"`
	Record    json.RawMessage `json:"record,omitempty"`
}

// toExecuteResult renders one finalized cell as a result frame.
func (s *Server) toExecuteResult(res sweep.Result) executeResult {
	er := executeResult{ID: res.ID}
	if res.Err == nil {
		er.Record, res.Err = store.EncodeRecord(s.st.Physics(), res.Scenario, res.Metrics)
	}
	if res.Err != nil {
		er.Error = res.Err.Error()
		er.Unstarted = errors.Is(res.Err, sweep.ErrUnstarted)
	}
	return er
}
