package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// messyStore builds a store directory with several segments containing
// live records, a benign duplicate, a conflicting duplicate, a stale
// foreign-physics record and raw garbage — one of everything Compact
// must handle. Returns the live records.
func messyStore(t *testing.T, dir string) []Record {
	t.Helper()
	var live []Record
	for i := 0; i < 3; i++ { // three sealed segments, two records each
		s, err := Open(dir, "p1")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			sc := scenario("icx", "jacobi", uint64(10*i+j+1))
			m := metrics(float64(i), math.NaN(), math.Copysign(0, -1))
			if err := s.Put(sc, m); err != nil {
				t.Fatal(err)
			}
			live = append(live, Record{ID: sc.ID(), Scenario: sc, Metrics: m})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A fourth, hand-written segment: benign duplicate of live[0],
	// conflicting duplicate of live[1], a stale p0 record, and garbage.
	var extra bytes.Buffer
	dup, err := EncodeRecord("p1", live[0].Scenario, live[0].Metrics)
	if err != nil {
		t.Fatal(err)
	}
	conflict, err := EncodeRecord("p1", live[1].Scenario, metrics(424242))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := EncodeRecord("p0", scenario("spr", "stream", 77), metrics(7))
	if err != nil {
		t.Fatal(err)
	}
	extra.Write(dup)
	extra.Write(conflict)
	extra.Write(stale)
	extra.WriteString("{torn garbage that decodes as nothing\n")
	if err := os.WriteFile(filepath.Join(dir, "seg-000099.jsonl"), extra.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return live
}

func checkLive(t *testing.T, s *Store, live []Record) {
	t.Helper()
	if s.Len() != len(live) {
		t.Fatalf("store holds %d records, want %d (%s)", s.Len(), len(live), s.Stats())
	}
	for _, want := range live {
		got, ok := indexed(s, want.ID)
		if !ok {
			t.Fatalf("record %s lost", want.ID)
		}
		if got.Scenario != want.Scenario {
			t.Fatalf("scenario mutated: %+v vs %+v", got.Scenario, want.Scenario)
		}
		equalBits(t, got.Metrics, want.Metrics)
	}
}

func TestCompactMergesToOneSegment(t *testing.T) {
	dir := t.TempDir()
	live := messyStore(t, dir)

	s := mustOpen(t, dir, "p1")
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsBefore != 4 || cs.SegmentsAfter != 1 {
		t.Fatalf("compact stats = %s, want 4 segments -> 1", cs)
	}
	if cs.Records != len(live) || cs.DroppedDuplicates != 1 || cs.Conflicts != 1 ||
		cs.DroppedStale != 1 || cs.DroppedCorrupt != 1 {
		t.Fatalf("compact stats = %s, want %d records, 1 of each drop class", cs, len(live))
	}
	if cs.BytesAfter >= cs.BytesBefore || cs.BytesAfter <= 0 {
		t.Fatalf("compact stats = %s, bytes must shrink", cs)
	}
	checkLive(t, s, live)

	// On disk: exactly one segment and nothing else, and the next Open
	// finds no damage in it.
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 || filepath.Ext(files[0]) != ".jsonl" {
		t.Fatalf("files on disk after compact: %v, want one segment", files)
	}
	s.Close()
	s2 := mustOpen(t, dir, "p1")
	if st := s2.Stats(); st.Segments != 1 || st.Stale != 0 || st.Corrupt != 0 || st.Duplicates != 0 || st.Conflicts != 0 {
		t.Fatalf("post-compact reopen stats = %s, want one clean segment", st)
	}
	checkLive(t, s2, live)
}

func TestCompactKeepsFirstRecordOnConflict(t *testing.T) {
	dir := t.TempDir()
	live := messyStore(t, dir)
	s := mustOpen(t, dir, "p1")
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// live[1] had a conflicting rival in a later segment; the original
	// must have survived compaction byte-for-byte.
	got, ok := indexed(s, live[1].ID)
	if !ok {
		t.Fatal("conflicted record lost")
	}
	equalBits(t, got.Metrics, live[1].Metrics)
}

func TestCompactEmptyAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "p1")
	if cs, err := s.Compact(); err != nil || cs.SegmentsBefore != 0 {
		t.Fatalf("compact of empty store: %v %s", err, cs)
	}
	live := messyStore(t, dir)
	s2 := mustOpen(t, dir, "p1")
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	cs, err := s2.Compact() // second compact is a clean no-op merge
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsBefore != 1 || cs.Records != len(live) ||
		cs.DroppedStale+cs.DroppedCorrupt+cs.DroppedDuplicates+cs.Conflicts != 0 {
		t.Fatalf("re-compact stats = %s, want nothing to do", cs)
	}
	checkLive(t, s2, live)
}

func TestCompactThenPutThenReopen(t *testing.T) {
	dir := t.TempDir()
	live := messyStore(t, dir)
	s := mustOpen(t, dir, "p1")
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sc := scenario("spr", "tealeaf", 500)
	m := metrics(3.14159, math.Inf(1))
	if err := s.Put(sc, m); err != nil {
		t.Fatal(err)
	}
	live = append(live, Record{ID: sc.ID(), Scenario: sc, Metrics: m})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, "p1")
	checkLive(t, s2, live)
}

func TestCompactAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "p1")
	s.Close()
	if _, err := s.Compact(); err == nil {
		t.Fatal("Compact on a closed store succeeded")
	}
}

// TestCompactCrashStates reconstructs the on-disk state after a crash
// at each point of the publish protocol and proves Open recovers the
// full live set from every one of them.
func TestCompactCrashStates(t *testing.T) {
	build := func(t *testing.T) (string, []Record) {
		dir := t.TempDir()
		live := messyStore(t, dir)
		return dir, live
	}
	// compactedBytes runs a real compaction in a scratch copy of dir and
	// returns the merged segment's bytes — the exact content compact.tmp
	// holds before the rename.
	compactedBytes := func(t *testing.T, dir string) []byte {
		t.Helper()
		scratch := t.TempDir()
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(scratch, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(scratch, "p1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		merged, _ := filepath.Glob(filepath.Join(scratch, "seg-*.jsonl"))
		if len(merged) != 1 {
			t.Fatalf("scratch compact left %v", merged)
		}
		data, err := os.ReadFile(merged[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("crash-before-rename", func(t *testing.T) {
		// compact.tmp fully written, nothing published. The tmp file does
		// not match the segment glob, so recovery sees the old world.
		dir, live := build(t)
		if err := os.WriteFile(filepath.Join(dir, "compact.tmp"), compactedBytes(t, dir), 0o644); err != nil {
			t.Fatal(err)
		}
		checkLive(t, mustOpen(t, dir, "p1"), live)
	})

	t.Run("crash-after-rename-before-removal", func(t *testing.T) {
		// The merged segment replaced the lowest one; every higher
		// segment still exists. Their content is now pure duplicates of
		// the merged segment — recovery must land on the same live set,
		// first-wins.
		dir, live := build(t)
		merged := compactedBytes(t, dir)
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
		target := segs[0]
		if err := os.WriteFile(target, merged, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, "p1")
		checkLive(t, s, live)
		if st := s.Stats(); st.Conflicts != 1 {
			// The hand-written rival record still conflicts on re-scan; it
			// must NOT have been laundered into the merged segment.
			t.Fatalf("stats = %s, want the surviving rival still flagged", st)
		}
	})

	t.Run("crash-mid-removal", func(t *testing.T) {
		// Rename done, some higher segments already removed.
		dir, live := build(t)
		merged := compactedBytes(t, dir)
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
		target := segs[0]
		if err := os.WriteFile(target, merged, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs[1:3] {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
		checkLive(t, mustOpen(t, dir, "p1"), live)
	})

	t.Run("crash-before-new-sidecar", func(t *testing.T) {
		// Every higher segment removed: the state after step 3 before
		// its directory fsync. Older builds, whose protocol ended by
		// writing an index file for the merged segment, left the same
		// state when they crashed before that write.
		dir, live := build(t)
		merged := compactedBytes(t, dir)
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
		target := segs[0]
		if err := os.WriteFile(target, merged, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs[1:] {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
		s := mustOpen(t, dir, "p1")
		if st := s.Stats(); st.Segments != 1 || st.Corrupt != 0 || st.Duplicates != 0 {
			t.Fatalf("stats = %s, want one clean segment", st)
		}
		checkLive(t, s, live)
	})
}

// FuzzCompactionRecovery: a store whose directory holds arbitrary
// leftover bytes in compact.tmp plus fuzz-chosen segment damage must
// compact (or refuse) without panicking, and whatever survives must be
// genuine records.
func FuzzCompactionRecovery(f *testing.F) {
	line, err := EncodeRecord("p1", scenario("icx", "jacobi", 1), metrics(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("leftover"), line)
	f.Add([]byte{}, []byte("garbage\n"))
	f.Add(line, line[:len(line)/2])

	f.Fuzz(func(t *testing.T, tmp, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "compact.tmp"), tmp, 0o644); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), segment, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, "p1")
		if err != nil {
			t.Fatalf("Open errored: %v", err)
		}
		defer s.Close()
		before := records(s)
		cs, err := s.Compact()
		if err != nil {
			return // refusal is fine; panics and corruption are not
		}
		after := records(s)
		if len(after) != len(before) || cs.Records != len(before) {
			t.Fatalf("compact changed live set: %d -> %d (%s)", len(before), len(after), cs)
		}
		for i := range before {
			if before[i].ID != after[i].ID {
				t.Fatalf("compact reordered/replaced records: %s vs %s", before[i].ID, after[i].ID)
			}
			equalBits(t, after[i].Metrics, before[i].Metrics)
		}
	})
}

// BenchmarkStoreOpen measures Open of a sealed 1e5-record store: the
// replay of every line into the in-memory index.
func BenchmarkStoreOpen(b *testing.B) {
	const n = 100_000
	dir := b.TempDir()
	s, err := Open(dir, "p1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(scenario("icx", "jacobi", uint64(i+1)), metrics(float64(i), 0.25)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, "p1")
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("recovered %d records, want %d", s.Len(), n)
		}
		s.Close()
	}
}
