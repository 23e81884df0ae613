package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
)

// Client is the typed HTTP client of one sweepd worker — the other
// half of the server's wire protocol, so the dispatch layer never
// hand-rolls JSON against it. It is safe for concurrent use.
type Client struct {
	// BaseURL is the worker's root URL (e.g. "http://host:8075").
	BaseURL string
	// physics is the version every expand stream and record must
	// carry: a worker restarted mid-campaign with another build (or
	// swapped behind a load balancer) cannot merge foreign-physics
	// results into this campaign or its store.
	physics string
}

// NewClient returns a client for one worker base URL, promoting a
// scheme-less host[:port] to http://, that accepts results simulated
// under physics only.
func NewClient(base, physics string) *Client {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{BaseURL: base, physics: physics}
}

// maxHealthzBytes bounds a healthz body; maxExpandBytes bounds each
// frame of an expand stream (a stream's total size is whatever its
// batch legitimately needs): one result frame stays far below it,
// while an endless line from a wedged worker must not balloon the
// dispatcher's memory. A package var so tests can exercise the
// oversize path without generating 64 MiB.
const maxHealthzBytes = int64(1 << 20)

var maxExpandBytes = 64 << 20

// readBody reads a bounded response body, returning an explicit error
// when the server sends more than limit bytes. It reads limit+1 so
// truncation is detectable: a plain LimitReader(limit) would silently
// cut the body, and the loss would surface downstream as a misleading
// parse error instead of naming the real problem.
func (c *Client) readBody(body io.Reader, limit int64, what string) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %s: reading %s: %w", c.BaseURL, what, err)
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("sweepd client: %s: %s exceeds %d-byte limit; refusing to parse a truncated body", c.BaseURL, what, limit)
	}
	return b, nil
}

// errorBody extracts the server's {"error": ...} message from a non-200
// response, falling back to the raw body.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// Healthz probes the worker's /v1/healthz.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/healthz", nil)
	if err != nil {
		return Health{}, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	body, err := c.readBody(resp.Body, maxHealthzBytes, "healthz response")
	if err != nil {
		return Health{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Health{}, fmt.Errorf("sweepd client: %s: healthz status %d: %s", c.BaseURL, resp.StatusCode, errorBody(body))
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return Health{}, fmt.Errorf("sweepd client: %s: bad healthz body: %w", c.BaseURL, err)
	}
	return h, nil
}

// ExecuteScenarios posts the scenarios' canonical keys to the worker's
// /v1/expand and reads the NDJSON stream it answers with. onResult
// fires for each cell the moment its frame arrives, in completion
// order, with the cell's index in scenarios and its metrics or error;
// the error of a cell the worker never started wraps
// sweep.ErrUnstarted. The scenarios' IDs must be distinct, as the
// engine hands a backend each ID once.
//
// A transport error, a non-200 status, a malformed, mismatched or
// truncated stream, and a success frame whose record fails
// store.DecodeRecord under the client's physics or names another cell
// are errors of the worker: the batch is unaccounted for. onResult may
// already have fired for a prefix of cells; those results are valid,
// so callers tracking per-cell delivery can keep them and re-dispatch
// only the rest.
func (c *Client) ExecuteScenarios(ctx context.Context, scenarios []sweep.Scenario, onResult func(i int, m sweep.Metrics, err error)) error {
	keys := make([]string, len(scenarios))
	pending := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		keys[i] = sc.Key()
		pending[sc.ID()] = i
	}
	reqBody, err := json.Marshal(expandRequest{Scenarios: keys})
	if err != nil {
		return fmt.Errorf("sweepd client: %s: encoding request: %w", c.BaseURL, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/expand", bytes.NewReader(reqBody))
	if err != nil {
		return fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, rerr := c.readBody(resp.Body, maxHealthzBytes, "expand error response")
		if rerr != nil {
			return rerr
		}
		return fmt.Errorf("sweepd client: %s: expand status %d: %s", c.BaseURL, resp.StatusCode, errorBody(body))
	}

	// The buffer cap bounds each FRAME, not the stream: a stream is as
	// long as the batch demands (held memory stays one frame), while any
	// single oversized line still fails loudly instead of ballooning.
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, maxExpandBytes)
	var sawHeader, sawSummary bool
	for !sawSummary && lines.Scan() {
		line := lines.Bytes()
		if len(line) == 0 {
			continue // tolerate blank keepalive lines
		}
		var f streamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("sweepd client: %s: bad expand stream: %w", c.BaseURL, err)
		}
		switch {
		case f.Stream != nil:
			if sawHeader {
				return fmt.Errorf("sweepd client: %s: duplicate stream header frame", c.BaseURL)
			}
			sawHeader = true
			if f.Stream.Physics != c.physics {
				return fmt.Errorf("sweepd client: %s: stream simulated under physics %s, want %s", c.BaseURL, f.Stream.Physics, c.physics)
			}
			if f.Stream.Scenarios != len(scenarios) {
				return fmt.Errorf("sweepd client: %s: stream announces %d results for %d scenarios", c.BaseURL, f.Stream.Scenarios, len(scenarios))
			}
		case f.Result != nil:
			if !sawHeader {
				return fmt.Errorf("sweepd client: %s: result frame before stream header", c.BaseURL)
			}
			r := f.Result
			i, ok := pending[r.ID]
			if !ok {
				return fmt.Errorf("sweepd client: %s: stream delivered unrequested (or extra) result %s", c.BaseURL, r.ID)
			}
			delete(pending, r.ID)
			switch {
			case r.Unstarted:
				onResult(i, nil, fmt.Errorf("worker %s: %w: %s", c.BaseURL, sweep.ErrUnstarted, r.Error))
			case r.Error != "":
				onResult(i, nil, fmt.Errorf("worker %s: %s", c.BaseURL, r.Error))
			case r.Record == nil:
				return fmt.Errorf("sweepd client: %s: result %s: success frame carries no record", c.BaseURL, r.ID)
			default:
				rec, err := store.DecodeRecord(r.Record, c.physics)
				if err == nil && rec.ID != r.ID {
					err = fmt.Errorf("frame carries the record of %s", rec.ID)
				}
				if err != nil {
					return fmt.Errorf("sweepd client: %s: result %s: %w", c.BaseURL, r.ID, err)
				}
				onResult(i, rec.Metrics, nil)
			}
		case f.Summary != nil:
			sawSummary = true
		default:
			return fmt.Errorf("sweepd client: %s: unrecognized expand stream frame", c.BaseURL)
		}
	}
	if err := lines.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("frame exceeds %d-byte limit", maxExpandBytes)
		}
		return fmt.Errorf("sweepd client: %s: bad expand stream: %w", c.BaseURL, err)
	}
	if !sawSummary {
		return fmt.Errorf("sweepd client: %s: expand stream truncated before its summary frame; batch unaccounted for", c.BaseURL)
	}
	if len(pending) > 0 {
		return fmt.Errorf("sweepd client: %s: stream delivered %d of %d results", c.BaseURL, len(scenarios)-len(pending), len(scenarios))
	}
	return nil
}
