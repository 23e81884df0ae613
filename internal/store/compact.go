package store

// Segment compaction: Compact merges every segment — the active one is
// sealed first — into one deduplicated segment holding exactly the
// store's live records, dropping stale-physics records, corrupt lines,
// and duplicate re-encounters (conflicting duplicates are counted and
// reported, first record still wins, exactly as in recovery).
//
// The publish protocol is crash-safe; a crash at ANY point recovers to
// a correct index because the new segment is only ever visible as a
// superset-consistent replacement:
//
//  1. Write every surviving line to compact.tmp (invisible to the
//     segment glob) and fsync it.
//  2. Atomically rename compact.tmp over the lowest segment and fsync
//     the directory. From this instant the lowest segment holds every
//     live record; the higher segments now contain only duplicates of
//     it (or droppable lines), so recovery is correct whether or not
//     they still exist.
//  3. Remove the higher segments and fsync the directory again.
//
// Compaction requires exclusive ownership of the store directory: a
// concurrent writer process appending its own segment would have that
// segment merged-and-removed mid-write. The embedding daemon (sweepd)
// owns its store, so its admin endpoint is safe; for offline stores
// use cmd/sweep -store-compact while nothing else runs.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// CompactStats reports what one Compact did.
type CompactStats struct {
	SegmentsBefore    int   `json:"segments_before"`
	SegmentsAfter     int   `json:"segments_after"`
	Records           int   `json:"records"`            // live records kept
	DroppedStale      int   `json:"dropped_stale"`      // foreign-physics records pruned
	DroppedCorrupt    int   `json:"dropped_corrupt"`    // undecodable lines pruned
	DroppedDuplicates int   `json:"dropped_duplicates"` // benign duplicate lines pruned
	Conflicts         int   `json:"conflicts"`          // duplicates with differing bits (first wins)
	BytesBefore       int64 `json:"bytes_before"`
	BytesAfter        int64 `json:"bytes_after"`
}

func (cs CompactStats) String() string {
	return fmt.Sprintf("compacted %d segments (%d bytes) into %d (%d bytes): %d records kept, dropped %d stale + %d corrupt + %d duplicate, %d conflicts",
		cs.SegmentsBefore, cs.BytesBefore, cs.SegmentsAfter, cs.BytesAfter,
		cs.Records, cs.DroppedStale, cs.DroppedCorrupt, cs.DroppedDuplicates, cs.Conflicts)
}

// Compact merges all segments into one deduplicated segment and
// rebuilds the in-memory index from the result. It blocks reads and
// writes for the duration.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, errors.New("store: compact after close")
	}
	if err := s.sealActiveLocked(); err != nil {
		return CompactStats{}, err
	}
	segs, err := s.segments()
	if err != nil {
		return CompactStats{}, err
	}
	if len(segs) == 0 {
		return CompactStats{}, nil
	}

	cs := CompactStats{SegmentsBefore: len(segs), SegmentsAfter: 1}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			cs.BytesBefore += fi.Size()
		}
	}

	tmpPath := filepath.Join(s.dir, "compact.tmp")
	if err := s.mergeSegments(tmpPath, segs, &cs); err != nil {
		os.Remove(tmpPath)
		return CompactStats{}, err
	}

	// Publish (steps 2 and 3 of the protocol above).
	if err := os.Rename(tmpPath, segs[0]); err != nil {
		os.Remove(tmpPath)
		return CompactStats{}, fmt.Errorf("store: compact: %w", err)
	}
	syncDir(s.dir)
	for _, seg := range segs[1:] {
		if err := os.Remove(seg); err != nil {
			return CompactStats{}, fmt.Errorf("store: compact: %w", err)
		}
	}
	syncDir(s.dir)

	// Rebuild the in-memory view from the published state.
	s.index = map[string]Record{}
	s.stats = Stats{}
	if err := s.recoverAllLocked(); err != nil {
		return cs, err
	}
	return cs, nil
}

// mergeSegments streams every segment in recovery order into one new
// file at tmpPath, keeping the first occurrence of each live record
// verbatim (bytes preserved exactly — the exact-IEEE-754-bits contract
// carries through compaction trivially) and dropping everything else.
// It fills in the record and drop counters and BytesAfter.
func (s *Store) mergeSegments(tmpPath string, segs []string, cs *CompactStats) error {
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer tmp.Close()
	out := bufio.NewWriterSize(tmp, 256<<10)

	kept := map[string]Record{} // id -> first record, written out
	for _, seg := range segs {
		err := s.scanSegment(seg, func(line []byte, rec Record, derr error) error {
			switch {
			case derr == nil:
				if first, dup := kept[rec.ID]; dup {
					if sameRecord(s.physics, first, rec) {
						cs.DroppedDuplicates++
					} else {
						cs.Conflicts++
					}
					return nil
				}
				if _, werr := out.Write(append(line, '\n')); werr != nil {
					return fmt.Errorf("store: compact: %w", werr)
				}
				kept[rec.ID] = rec
				cs.BytesAfter += int64(len(line)) + 1
			case isStale(derr):
				cs.DroppedStale++
			default:
				cs.DroppedCorrupt++
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := out.Flush(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	cs.Records = len(kept)
	return nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable. Best-effort: not every filesystem supports it, and the
// protocol stays correct without it — only the crash window widens.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort durability; unsupported on some filesystems (see func comment)
		d.Close()
	}
}
