package sweepd

// sweepd-to-sweepd replication: GET /v1/sync streams the records a
// peer is missing, so a fleet of workers converges to one result set
// with no shared filesystem. The transport reuses the NDJSON frame
// discipline of the expand stream; the payload reuses the store's own
// line encoding, so a pulled record carries the exact IEEE-754 bits —
// and the full per-record integrity contract — of the origin store.
//
//	GET /v1/sync?since=<watermark>&epoch=<epoch>&physics=<version>
//
// responds with NDJSON frames:
//
//	{"sync":{...}}      header: physics, epoch, effective since, watermark, count
//	{"record":{...}}    one per missing record, store line encoding, admission order
//	{"summary":{...}}   terminal: sent count + watermark to resume from
//
// Watermark semantics: record sequence numbers are per-store-INSTANCE
// — minted fresh at every Open and every Compact — so a watermark is
// only meaningful within the epoch that issued it. A client presents
// the epoch its watermark came from; when the server's epoch differs
// (daemon restarted, store compacted) the server ignores `since` and
// replays from zero. Content addressing makes the replay converge: the
// puller's store drops records it already holds as idempotent Puts.
//
// Mixed-physics fleets must never merge result sets, so the physics
// query parameter (always sent by the puller) is checked server-side —
// 409 on mismatch — and the header frame is checked client-side for
// defense against proxies and version skew in between.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"cloversim/internal/store"
)

// syncFrame is one NDJSON line of a /v1/sync response: exactly one
// field is set.
type syncFrame struct {
	Sync    *syncHeader     `json:"sync,omitempty"`
	Record  json.RawMessage `json:"record,omitempty"`
	Summary *syncSummary    `json:"summary,omitempty"`
}

// syncHeader opens the stream: the origin's physics and epoch, the
// watermark the server actually resumed from (zero when the client's
// epoch was foreign), the watermark this stream catches the client up
// to, and how many record frames follow.
type syncHeader struct {
	Physics   string `json:"physics"`
	Epoch     string `json:"epoch"`
	Since     uint64 `json:"since"`
	Watermark uint64 `json:"watermark"`
	Records   int    `json:"records"`
}

// syncSummary closes the stream; a response without one was truncated
// and its watermark must not be advanced.
type syncSummary struct {
	Sent      int    `json:"sent"`
	Watermark uint64 `json:"watermark"`
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if p := r.URL.Query().Get("physics"); p != "" && p != s.st.Physics() {
		s.writeError(w, r, http.StatusConflict,
			"sync refused: this store holds physics %s, peer wants %s — mixed-physics result sets must never merge", s.st.Physics(), p)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad since watermark %q: %v", v, err)
			return
		}
		since = n
	}
	epoch := s.st.Epoch()
	if r.URL.Query().Get("epoch") != epoch {
		// The client's watermark belongs to another store instance (or it
		// never synced): replay everything. Idempotent Puts on the client
		// make the replay converge instead of duplicating.
		since = 0
	}
	ids, watermark := s.st.IDsSince(since)

	out := newNDJSONStream(w)
	out.frame(syncFrame{Sync: &syncHeader{
		Physics: s.st.Physics(), Epoch: epoch,
		Since: since, Watermark: watermark, Records: len(ids),
	}})
	sent := 0
	for _, id := range ids {
		rec, ok := s.st.Lookup(id)
		if !ok {
			continue // listed by IDsSince but no longer served
		}
		line, err := store.EncodeRecord(s.st.Physics(), rec.Scenario, rec.Metrics)
		if err != nil {
			s.logf("sweepd: GET /v1/sync: encoding %s: %v", id, err)
			continue
		}
		// The store line IS the frame payload: the puller re-validates it
		// with store.DecodeRecord, the same integrity gate recovery uses.
		out.frame(syncFrame{Record: json.RawMessage(line[:len(line)-1])})
		sent++
	}
	out.frame(syncFrame{Summary: &syncSummary{Sent: sent, Watermark: watermark}})
	if out.err != nil {
		s.logf("sweepd: GET /v1/sync: writing stream: %v", out.err)
	}
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

// SyncState is a puller's resume position against one peer: the last
// watermark it fully applied, namespaced by the peer epoch that issued
// it. The zero value means "never synced" and pulls everything.
type SyncState struct {
	Epoch     string
	Watermark uint64
}

// SyncSince pulls the records a peer admitted after state, invoking
// apply for each one in admission order, and returns the state to
// resume from next time plus how many records arrived. The returned
// state is only advanced past state when the stream completed with its
// summary frame — a truncated stream returns an error and the caller
// retries from the old watermark (idempotent applies make that safe).
// Records are validated with the store's own decoder, so a corrupt or
// forged frame fails the pull rather than entering the local store.
func (c *Client) SyncSince(ctx context.Context, state SyncState, apply func(store.Record) error) (SyncState, int, error) {
	q := url.Values{}
	q.Set("since", strconv.FormatUint(state.Watermark, 10))
	q.Set("epoch", state.Epoch)
	if c.Physics != "" {
		q.Set("physics", c.Physics)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/sync?"+q.Encode(), nil)
	if err != nil {
		return state, 0, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return state, 0, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, rerr := c.readBody(resp.Body, maxHealthzBytes, "sync error response")
		if rerr != nil {
			return state, 0, rerr
		}
		return state, 0, fmt.Errorf("sweepd client: %s: sync status %d: %s", c.BaseURL, resp.StatusCode, errorBody(body))
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var header *syncHeader
	var sawSummary bool
	applied := 0
	for !sawSummary {
		line, err := readFrameLine(br, maxExpandBytes)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return state, applied, fmt.Errorf("sweepd client: %s: bad sync stream: %w", c.BaseURL, err)
		}
		atEOF := err == io.EOF
		if len(line) == 0 {
			continue
		}
		var f syncFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return state, applied, fmt.Errorf("sweepd client: %s: bad sync stream: %w", c.BaseURL, err)
		}
		switch {
		case f.Sync != nil:
			if header != nil {
				return state, applied, fmt.Errorf("sweepd client: %s: duplicate sync header frame", c.BaseURL)
			}
			if c.Physics != "" && f.Sync.Physics != c.Physics {
				return state, applied, fmt.Errorf("sweepd client: %s: peer store holds physics %s, want %s — refusing mixed-physics sync", c.BaseURL, f.Sync.Physics, c.Physics)
			}
			header = f.Sync
		case f.Record != nil:
			if header == nil {
				return state, applied, fmt.Errorf("sweepd client: %s: record frame before sync header", c.BaseURL)
			}
			// The frame payload is a store line: decode through the store's
			// integrity gate (physics, key parse, ID re-derivation, metric
			// bits), so a forged or corrupted record cannot enter locally.
			rec, err := store.DecodeRecord(f.Record, header.Physics)
			if err != nil {
				return state, applied, fmt.Errorf("sweepd client: %s: sync record rejected: %w", c.BaseURL, err)
			}
			if err := apply(rec); err != nil {
				return state, applied, fmt.Errorf("sweepd client: %s: applying sync record %s: %w", c.BaseURL, rec.ID, err)
			}
			applied++
		case f.Summary != nil:
			sawSummary = true
			if header == nil {
				return state, applied, fmt.Errorf("sweepd client: %s: sync summary before header", c.BaseURL)
			}
			state = SyncState{Epoch: header.Epoch, Watermark: f.Summary.Watermark}
		default:
			return state, applied, fmt.Errorf("sweepd client: %s: unrecognized sync frame", c.BaseURL)
		}
		if atEOF {
			break
		}
	}
	if !sawSummary {
		return state, applied, fmt.Errorf("sweepd client: %s: sync stream truncated before its summary frame; watermark not advanced", c.BaseURL)
	}
	return state, applied, nil
}

// Puller keeps one local store converged to a peer's result set by
// periodically pulling /v1/sync. It remembers its watermark between
// pulls, so steady-state pulls are cheap (header + summary, no
// records).
type Puller struct {
	Client *Client     // peer to pull from; Physics should be set
	Store  ResultStore // local store records are applied to
	Log    *log.Logger // nil = log.Default()

	state SyncState
}

// Pull runs one sync round against the peer, returning how many
// records were applied. Applied records are fsynced before the
// watermark advances, so a crash never skips records it acknowledged.
func (p *Puller) Pull(ctx context.Context) (int, error) {
	next, n, err := p.Client.SyncSince(ctx, p.state, func(rec store.Record) error {
		return p.Store.Put(rec.Scenario, rec.Metrics)
	})
	if err != nil {
		return n, err
	}
	if n > 0 {
		if err := p.Store.Sync(); err != nil {
			// Not durable: keep the old watermark so the next pull
			// re-applies (idempotently) and re-attempts the fsync.
			return n, err
		}
	}
	p.state = next
	return n, nil
}

// Run pulls every interval until ctx is cancelled, logging failures
// and record counts (silent on empty steady-state rounds). An initial
// pull runs immediately.
func (p *Puller) Run(ctx context.Context, every time.Duration) {
	logf := log.Default().Printf
	if p.Log != nil {
		logf = p.Log.Printf
	}
	//lint:allow nondet replication heartbeat cadence: when to pull, never what the records hold
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		if n, err := p.Pull(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			logf("sweepd: sync from %s: %v", p.Client.BaseURL, err)
		} else if n > 0 {
			logf("sweepd: sync from %s: %d records applied (%d local)", p.Client.BaseURL, n, p.Store.Len())
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
