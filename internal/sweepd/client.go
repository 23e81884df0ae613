package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"cloversim/internal/sweep"
)

// Client is the typed HTTP client of one sweepd worker — the other
// half of the server's wire protocol, so the dispatch layer never
// hand-rolls JSON against it. It is safe for concurrent use.
type Client struct {
	// BaseURL is the worker's root URL (e.g. "http://host:8075"). A
	// bare host[:port] is promoted to http://.
	BaseURL string
	// HTTPClient, when nil, falls back to http.DefaultClient. Expand
	// calls can legitimately run for minutes (cold simulation), so a
	// client with a global timeout is usually wrong here; bound calls
	// with the context instead.
	HTTPClient *http.Client
	// Physics, when non-empty, makes ExecuteScenarios reject responses
	// simulated under a different physics version. A fleet checks
	// healthz at assembly, but a worker can be restarted with a newer
	// binary (or swapped behind a load balancer) mid-campaign; the
	// per-response check keeps foreign-physics results from ever
	// merging into this campaign or its store.
	Physics string
}

// NewClient returns a client for one worker base URL, promoting a
// scheme-less host[:port] to http://.
func NewClient(base string) *Client {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{BaseURL: base}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// maxHealthzBytes bounds a healthz body; maxExpandBytes bounds each
// frame of an expand stream (a stream's total size is whatever its
// batch legitimately needs): one result frame stays far below it,
// while an endless line from a wedged worker must not balloon the
// dispatcher's memory. A package var so tests can exercise the
// oversize path without generating 64 MiB.
const maxHealthzBytes = int64(1 << 20)

var maxExpandBytes = int64(64 << 20)

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

// readFrameLine reads one NDJSON frame line (terminator stripped) from
// a stream, bounding the FRAME at limit bytes — the stream itself may
// be arbitrarily long. The bound is enforced while accumulating, so an
// endless unterminated line fails at limit+1 bytes held instead of
// ballooning memory first. io.EOF accompanies a final unterminated
// frame (possibly empty); the caller decides whether that is truncation.
func readFrameLine(r *bufio.Reader, limit int64) ([]byte, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		line = append(line, frag...)
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if int64(len(line)) > limit {
			return nil, fmt.Errorf("frame exceeds %d-byte limit", limit)
		}
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return line, err
		}
	}
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
	resp, err := c.httpClient().Do(req)
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

// ExecResult is one scenario outcome returned by ExecuteScenarios.
// Exactly one of Metrics/Err is meaningful. Unstarted marks a cell the
// worker was cancelled out of before simulating (its expand deadline,
// a dying daemon): the cell is re-dispatchable, unlike a genuine
// simulation failure.
type ExecResult struct {
	ID        string
	Metrics   sweep.Metrics
	Err       error
	Unstarted bool
}

// decodeExecResult converts one wire result into an ExecResult,
// reconstructing metric values from their IEEE-754 bits — the bits
// field is authoritative; the decimal mirror cannot carry NaN/Inf and
// is for humans.
func (c *Client) decodeExecResult(r executeResult) (ExecResult, error) {
	res := ExecResult{ID: r.ID, Unstarted: r.Unstarted}
	if r.Error != "" {
		res.Err = fmt.Errorf("worker %s: %s", c.BaseURL, r.Error)
		return res, nil
	}
	m := make(sweep.Metrics, 0, len(r.Metrics))
	for _, jm := range r.Metrics {
		bits, err := strconv.ParseUint(jm.Bits, 16, 64)
		if err != nil {
			return ExecResult{}, fmt.Errorf("sweepd client: %s: result %s metric %s: bad bits %q", c.BaseURL, r.ID, jm.Name, jm.Bits)
		}
		m.Add(jm.Name, math.Float64frombits(bits))
	}
	res.Metrics = m
	return res, nil
}

// ExecuteScenarios posts the scenarios to the worker's /v1/expand in
// explicit-key form and reads the NDJSON stream it answers with.
// onResult (when non-nil) fires for each cell the moment its frame
// arrives — in completion order, not request order — and the full
// request-ordered result slice is returned at the end. Metric values
// are reconstructed from their IEEE-754 bits, so they are bit-exact
// with what the worker simulated.
//
// A transport error, a non-200 status or a malformed, mismatched or
// truncated stream is a worker-level error: the batch is unaccounted
// for. onResult may already have fired for a prefix of cells; those
// results are valid (they carry bit-exact metrics the worker really
// produced), so callers tracking per-cell delivery can keep them and
// re-dispatch only the rest. A stream that dies before its terminal
// summary frame is reported as truncated, never silently treated as
// complete.
func (c *Client) ExecuteScenarios(ctx context.Context, scenarios []sweep.Scenario, onResult func(i int, r ExecResult)) ([]ExecResult, error) {
	keys := make([]string, len(scenarios))
	for i, s := range scenarios {
		keys[i] = s.Key()
	}
	reqBody, err := json.Marshal(GridSpec{Scenarios: keys})
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %s: encoding request: %w", c.BaseURL, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/expand", bytes.NewReader(reqBody))
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, rerr := c.readBody(resp.Body, maxHealthzBytes, "expand error response")
		if rerr != nil {
			return nil, rerr
		}
		return nil, fmt.Errorf("sweepd client: %s: expand status %d: %s", c.BaseURL, resp.StatusCode, errorBody(body))
	}

	// Results arrive in completion order; match each frame to the
	// earliest not-yet-delivered request index with its scenario ID
	// (duplicate scenarios in one batch each get a frame — the server
	// finalizes one result per requested cell).
	pending := make(map[string][]int, len(scenarios))
	for i, s := range scenarios {
		id := s.ID()
		pending[id] = append(pending[id], i)
	}
	out := make([]ExecResult, len(scenarios))
	delivered := 0
	// The limit bounds each FRAME, not the stream: a stream is as long
	// as the batch demands (held memory stays one frame), while any
	// single oversized line still fails loudly instead of ballooning.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var sawHeader, sawSummary bool
	for !sawSummary {
		line, err := readFrameLine(br, maxExpandBytes)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("sweepd client: %s: bad expand stream: %w", c.BaseURL, err)
		}
		atEOF := err == io.EOF
		if len(line) == 0 {
			continue // tolerate blank keepalive lines
		}
		var f streamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("sweepd client: %s: bad expand stream: %w", c.BaseURL, err)
		}
		switch {
		case f.Stream != nil:
			if sawHeader {
				return nil, fmt.Errorf("sweepd client: %s: duplicate stream header frame", c.BaseURL)
			}
			sawHeader = true
			if c.Physics != "" && f.Stream.Physics != c.Physics {
				return nil, fmt.Errorf("sweepd client: %s: stream simulated under physics %s, want %s", c.BaseURL, f.Stream.Physics, c.Physics)
			}
			if f.Stream.Scenarios != len(scenarios) {
				return nil, fmt.Errorf("sweepd client: %s: stream announces %d results for %d scenarios", c.BaseURL, f.Stream.Scenarios, len(scenarios))
			}
		case f.Result != nil:
			if !sawHeader {
				return nil, fmt.Errorf("sweepd client: %s: result frame before stream header", c.BaseURL)
			}
			q := pending[f.Result.ID]
			if len(q) == 0 {
				return nil, fmt.Errorf("sweepd client: %s: stream delivered unrequested (or extra) result %s", c.BaseURL, f.Result.ID)
			}
			i := q[0]
			pending[f.Result.ID] = q[1:]
			res, err := c.decodeExecResult(*f.Result)
			if err != nil {
				return nil, err
			}
			out[i] = res
			delivered++
			if onResult != nil {
				onResult(i, res)
			}
		case f.Summary != nil:
			sawSummary = true
		default:
			return nil, fmt.Errorf("sweepd client: %s: unrecognized expand stream frame", c.BaseURL)
		}
		if atEOF {
			break
		}
	}
	if !sawSummary {
		return nil, fmt.Errorf("sweepd client: %s: expand stream truncated before its summary frame; batch unaccounted for", c.BaseURL)
	}
	if delivered != len(scenarios) {
		return nil, fmt.Errorf("sweepd client: %s: stream delivered %d of %d results", c.BaseURL, delivered, len(scenarios))
	}
	return out, nil
}
