// Package store is the persistent, content-addressed campaign result
// store: every simulated scenario is recorded once, keyed by its
// config hash (sweep.Scenario.ID) plus the physics version of the
// simulator that produced it, in an append-only JSONL segment format.
//
// It is the durability layer that makes the in-process sweep engine
// resumable: cmd/sweep -store skips every already-simulated cell of a
// campaign grid, and each cmd/sweepd fleet worker serves its expands
// warm from one store.
//
// Design points:
//
//   - Content addressing. A record's identity is the scenario's config
//     hash; the physics version namespaces it. Writing the same
//     scenario twice is a no-op, so concurrent writers converge
//     instead of conflicting.
//   - Append-safe segments. Each record is one JSON line appended with
//     a single O_APPEND write, so a crash can only tear the final
//     line, never an earlier record.
//   - One recovery path. Open replays every segment line by line
//     through DecodeRecord into an in-memory index, and every read is
//     served from that index. Open writes nothing into the directory,
//     and files there other than segments are never read.
//   - Corruption-tolerant recovery. The replay tolerates torn tails,
//     garbage lines, duplicate records and records whose key no longer
//     hashes to their claimed ID; damage is counted in Stats, never
//     fatal, and never a panic. A duplicate whose metric bits differ
//     from the indexed record is a Conflict — counted and reported
//     separately, first record still wins.
//   - Compaction. Compact (compact.go) merges every segment into one
//     deduplicated segment with a crash-safe publish protocol,
//     dropping stale-physics and corrupt lines.
//   - Version hygiene. Records from other physics versions are
//     retained on disk but never served, so bumping the version
//     invalidates every stale result at once without deleting data.
//     (Compact, an explicit admin operation, is the one exception: it
//     prunes foreign-physics records.)
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloversim/internal/sweep"
)

// segPattern matches segment files. Segments are scanned in numeric
// order on Open (seg-2 before seg-10, regardless of zero padding);
// each process appends to a fresh, exclusively created segment so two
// processes sharing a store directory never interleave writes within
// one file.
const segPattern = "seg-*.jsonl"

// maxLineBytes bounds one record line during recovery, so a corrupt
// segment full of unbroken garbage cannot balloon memory. Real records
// are a few hundred bytes.
const maxLineBytes = 1 << 20

// maxConflictIDs caps how many conflicting record IDs Stats retains
// for reporting; the count keeps incrementing past the cap.
const maxConflictIDs = 8

// Record is one stored campaign result: the scenario that produced it
// (rebuilt from its canonical key string) and its bit-exact metrics.
type Record struct {
	ID       string
	Scenario sweep.Scenario
	Metrics  sweep.Metrics
}

// Stats summarizes what Open found while recovering a store directory,
// plus the segment and records this store instance has added since.
type Stats struct {
	Segments   int // segment files scanned
	Records    int // live records indexed (current physics version)
	Stale      int // well-formed records under other physics versions
	Corrupt    int // undecodable or integrity-failed lines skipped
	Duplicates int // benign re-encounters of an already-indexed ID (same bits)
	Conflicts  int // re-encounters whose metric bits DIFFER from the indexed record

	// ConflictIDs names the first few conflicting record IDs (capped at
	// maxConflictIDs) so operators can find the offending lines; the
	// Conflicts count is not capped.
	ConflictIDs []string
}

func (s Stats) String() string {
	msg := fmt.Sprintf("%d records in %d segments (%d stale, %d corrupt, %d duplicate)",
		s.Records, s.Segments, s.Stale, s.Corrupt, s.Duplicates)
	if s.Conflicts > 0 {
		msg += fmt.Sprintf(", %d CONFLICTING duplicates %v", s.Conflicts, s.ConflictIDs)
	}
	return msg
}

// Store is a disk-backed result store. It is safe for concurrent use;
// reads are served from an in-memory index populated at Open and kept
// in sync by Put. Store implements sweep.Cache, so it plugs into the
// engine as the persistent tier directly.
type Store struct {
	dir     string
	physics string

	mu     sync.RWMutex
	index  map[string]Record // scenario ID -> record (current physics only)
	active *os.File          // lazily created on first Put
	closed bool              // Close was called; Put must not resurrect a segment
	dirty  bool              // appended since the last successful fsync
	torn   bool              // last append failed; tail may hold a partial line
	stats  Stats
}

// Open recovers the store in dir for the given physics version,
// creating the directory if needed, by replaying every segment into
// the in-memory index. Damaged segments degrade to Stats counts; only
// unreadable directories and I/O errors fail.
func Open(dir, physics string) (*Store, error) {
	if physics == "" {
		return nil, fmt.Errorf("store: empty physics version")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, physics: physics, index: map[string]Record{}}
	if err := s.recoverAllLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverAllLocked (re)builds the in-memory index from the segment
// files. Callers hold the write lock or exclusive ownership (Open).
func (s *Store) recoverAllLocked() error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		err := s.scanSegment(seg, func(_ []byte, rec Record, derr error) error {
			switch {
			case derr == nil:
				s.admitLocked(rec)
			case isStale(derr):
				s.stats.Stale++
			default:
				s.stats.Corrupt++
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	s.stats.Segments = len(segs)
	s.stats.Records = len(s.index)
	return nil
}

// segments lists the store's segment files in recovery order: numeric
// segment number ascending (seg-999999 before seg-1000000, which a
// lexical sort would invert past the zero-padding width), with
// non-numeric names — foreign files matching the glob — after all
// numeric ones, in lexical order among themselves.
func (s *Store) segments() ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(s.dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(segs, func(i, j int) bool { return segLess(segs[i], segs[j]) })
	return segs, nil
}

// segLess orders segment paths in recovery order (see segments).
func segLess(a, b string) bool {
	na, oka := segNumber(a)
	nb, okb := segNumber(b)
	switch {
	case oka && okb && na != nb:
		return na < nb
	case oka != okb:
		return oka // numeric before non-numeric
	default:
		return a < b
	}
}

// segNumber parses a segment file's number. Zero padding is
// insignificant: seg-000007 and seg-7 are the same segment number.
func segNumber(path string) (int64, bool) {
	base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "seg-"), ".jsonl")
	if base == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(base, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// scanSegment decodes the non-empty lines of one segment in order and
// hands each line to visit with its decode result. An error from visit
// stops the scan and is returned.
func (s *Store) scanSegment(path string, visit func(line []byte, rec Record, err error) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		line, err := readLine(r)
		if len(line) > 0 {
			rec, derr := DecodeRecord(line, s.physics)
			if verr := visit(line, rec, derr); verr != nil {
				return verr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
	}
}

// admitLocked indexes one decoded live record, first-wins.
func (s *Store) admitLocked(rec Record) {
	if first, dup := s.index[rec.ID]; dup {
		s.noteDuplicateLocked(first, rec)
		return
	}
	s.index[rec.ID] = rec
}

// noteDuplicateLocked classifies a re-encountered ID: identical
// canonical encodings are a benign duplicate (concurrent writers
// converging); different ones mean two simulations of one scenario
// disagreed — a conflict that dedup must not launder silently. Either
// way the first indexed record wins, deterministically.
func (s *Store) noteDuplicateLocked(first, again Record) {
	if sameRecord(s.physics, first, again) {
		s.stats.Duplicates++
		return
	}
	s.stats.Conflicts++
	if len(s.stats.ConflictIDs) < maxConflictIDs {
		s.stats.ConflictIDs = append(s.stats.ConflictIDs, first.ID)
	}
}

// sameRecord reports whether two records share one canonical encoding:
// the same scenario and exact metric bits, regardless of cosmetic
// differences in their on-disk JSON. Only a repeated ID pays for it.
func sameRecord(physics string, a, b Record) bool {
	la, err := EncodeRecord(physics, a.Scenario, a.Metrics)
	if err != nil {
		return false
	}
	lb, err := EncodeRecord(physics, b.Scenario, b.Metrics)
	return err == nil && bytes.Equal(la, lb)
}

// readLine reads one newline-terminated line, returning it without the
// terminator. Memory is bounded: a line longer than maxLineBytes has
// its tail consumed but discarded, and the truncated prefix is
// returned (it fails decoding and counts as corrupt, rather than
// ballooning recovery memory or aborting it). io.EOF accompanies the
// final, unterminated line.
func readLine(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line) < maxLineBytes {
			line = append(line, frag...)
			if len(line) > maxLineBytes {
				line = line[:maxLineBytes]
			}
		}
		switch err {
		case nil:
			if n := len(line); n > 0 && line[n-1] == '\n' {
				line = line[:n-1]
			}
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return line, err
		}
	}
}

// isStale reports whether a decode error means "fine record, other
// physics version" rather than corruption.
func isStale(err error) bool { _, ok := err.(*staleError); return ok }

type staleError struct{ got string }

func (e *staleError) Error() string { return "store: record from physics version " + e.got }

// lineRecord is the JSONL wire form of one record. The scenario rides
// as its canonical key string (sweep.ParseKey rebuilds it; the ID must
// re-derive from it, which is the per-record integrity check). Metric
// values ride as hex-encoded IEEE-754 bits so a round trip through the
// store is bit-exact; the decimal form is informational for humans and
// grep.
type lineRecord struct {
	ID      string       `json:"id"`
	Physics string       `json:"phys"`
	Key     string       `json:"key"`
	Metrics []lineMetric `json:"metrics"`
}

type lineMetric struct {
	Name  string  `json:"name"`
	Bits  string  `json:"bits"`
	Value float64 `json:"value,omitempty"`
}

// EncodeRecord renders one record as a JSONL line (newline included):
// the line a segment holds and the record a sweepd success frame
// carries.
func EncodeRecord(physics string, sc sweep.Scenario, m sweep.Metrics) ([]byte, error) {
	lr := lineRecord{
		ID:      sc.ID(),
		Physics: physics,
		Key:     sc.Key(),
		Metrics: make([]lineMetric, 0, len(m)),
	}
	for _, mt := range m {
		lm := lineMetric{Name: mt.Name, Bits: strconv.FormatUint(math.Float64bits(mt.Value), 16)}
		// The decimal mirror is best-effort: JSON cannot carry NaN/Inf,
		// and omitempty drops zeros — the bits field alone is
		// authoritative.
		if !math.IsNaN(mt.Value) && !math.IsInf(mt.Value, 0) {
			lm.Value = mt.Value
		}
		lr.Metrics = append(lr.Metrics, lm)
	}
	buf, err := json.Marshal(lr)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", lr.ID, err)
	}
	return append(buf, '\n'), nil
}

// DecodeRecord parses and verifies one record, a segment line or the
// record of a sweepd success frame. It never panics on arbitrary input.
// Beyond JSON well-formedness it enforces the store's integrity
// invariants: the physics version must match (a mismatch is the
// distinguished stale error), the key must parse as a canonical
// scenario key, the scenario must hash back to the claimed ID, and
// every metric must carry decodable bits under a non-empty name.
func DecodeRecord(line []byte, physics string) (Record, error) {
	var lr lineRecord
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lr); err != nil {
		return Record{}, fmt.Errorf("store: bad record line: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, fmt.Errorf("store: trailing data after record")
	}
	if lr.Physics != physics {
		return Record{}, &staleError{got: lr.Physics}
	}
	sc, err := sweep.ParseKey(lr.Key)
	if err != nil {
		return Record{}, fmt.Errorf("store: record %s: %w", lr.ID, err)
	}
	// ParseKey accepted only the key sc renders, so hashing it is sc.ID().
	if id := sweep.KeyID(lr.Key); id != lr.ID {
		return Record{}, fmt.Errorf("store: record claims ID %s but its key hashes to %s", lr.ID, id)
	}
	m := make(sweep.Metrics, 0, len(lr.Metrics))
	for _, lm := range lr.Metrics {
		if lm.Name == "" {
			return Record{}, fmt.Errorf("store: record %s: unnamed metric", lr.ID)
		}
		bits, err := strconv.ParseUint(lm.Bits, 16, 64)
		if err != nil {
			return Record{}, fmt.Errorf("store: record %s metric %s: bad bits %q", lr.ID, lm.Name, lm.Bits)
		}
		m.Add(lm.Name, math.Float64frombits(bits))
	}
	return Record{ID: lr.ID, Scenario: sc, Metrics: m}, nil
}

// Get serves a scenario's stored metrics, or ok=false when this store
// (under this physics version) has never seen it. The returned metrics
// are shared with the index: treat them as read-only.
func (s *Store) Get(sc sweep.Scenario) (sweep.Metrics, bool) {
	id := sc.ID()
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.index[id]
	return rec.Metrics, ok
}

// Put durably records one scenario result. Content addressing makes it
// idempotent: an ID already present (from this process, a previous
// one, or a concurrent writer recovered at Open) is a successful
// no-op, so the first write wins and the store never mutates a record.
func (s *Store) Put(sc sweep.Scenario, m sweep.Metrics) error {
	line, err := EncodeRecord(s.physics, sc, m)
	if err != nil {
		return err
	}
	rec := Record{ID: sc.ID(), Scenario: sc, Metrics: m}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// A forced shutdown can race a straggling write-through against
		// Close. Creating a fresh segment here would silently leave an
		// unsynced, unclosed file behind; failing loudly routes the
		// loss into the caller's durability-error path instead.
		return fmt.Errorf("store: put %s after close", rec.ID)
	}
	if _, dup := s.index[rec.ID]; dup {
		return nil
	}
	if s.active == nil {
		if err := s.createSegmentLocked(); err != nil {
			return err
		}
	}
	// One write syscall per record: O_APPEND guarantees the line lands
	// contiguously at the tail, so a torn write can only be a truncated
	// final line, which recovery skips. That guarantee requires never
	// appending directly after a failed write — the tail may hold a
	// partial, newline-less line that the next record would merge into,
	// corrupting BOTH on recovery. A leading newline terminates any
	// such garbage (recovery skips it as corrupt, or as a blank line)
	// so this record starts clean; it rides in the same single write.
	payload := line
	if s.torn {
		payload = append([]byte{'\n'}, line...)
	}
	if _, err := s.active.Write(payload); err != nil {
		s.torn = true // unknown how many bytes landed: poison the tail
		return fmt.Errorf("store: append %s: %w", rec.ID, err)
	}
	s.torn = false
	s.dirty = true
	s.admitLocked(rec)
	s.stats.Records = len(s.index)
	return nil
}

// createSegmentLocked opens this process's own append segment,
// numbered one past the highest existing segment number. O_EXCL
// retries give concurrent openers distinct files.
func (s *Store) createSegmentLocked() error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	next := int64(1)
	for _, seg := range segs {
		if n, ok := segNumber(seg); ok && n >= next {
			next = n + 1
		}
	}
	for try := 0; try < 1000; try, next = try+1, next+1 {
		path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", next))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			s.active = f
			s.stats.Segments++
			return nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("store: create segment: %w", err)
		}
	}
	return fmt.Errorf("store: could not claim a fresh segment in %s", s.dir)
}

// Len reports how many live records the store holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats reports recovery and occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.ConflictIDs = append([]string(nil), s.stats.ConflictIDs...)
	return st
}

// Physics reports the version this store was opened under.
func (s *Store) Physics() string { return s.physics }

// Sync flushes the active segment to stable storage. It is free when
// the store is clean — nothing appended since the last successful
// Sync — so callers on a response path may invoke it unconditionally;
// and because a failed fsync leaves the store dirty, the next Sync
// retries instead of silently vouching for unflushed bytes.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil || !s.dirty {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.dirty = false
	return nil
}

// Close syncs and closes the active segment. Afterwards reads and Sync
// remain safe no-ops, but Put fails: a closed store accepts no new
// records (see Put).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.sealActiveLocked()
}

// sealActiveLocked syncs and closes the active segment (if any). A
// failed sync or close is an error: those bytes may not be durable.
func (s *Store) sealActiveLocked() error {
	if s.active == nil {
		return nil
	}
	f := s.active
	s.active = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	s.dirty = false
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// Interface conformance: the store is the engine's persistent tier.
var _ sweep.Cache = (*Store)(nil)
