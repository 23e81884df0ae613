package store

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"cloversim/internal/sweep"
)

func scenario(machine, workload string, seed uint64) sweep.Scenario {
	nt, _ := sweep.ModeByName("nt")
	return sweep.Scenario{
		Machine:  machine,
		Workload: workload,
		Mode:     nt,
		Ranks:    4,
		Mesh:     sweep.Mesh{X: 1536, Y: 1536},
		Threads:  8,
		MaxRows:  8,
		Seed:     seed,
	}
}

func metrics(vals ...float64) sweep.Metrics {
	var m sweep.Metrics
	for i, v := range vals {
		m.Add("m"+string(rune('a'+i)), v)
	}
	return m
}

func mustOpen(t *testing.T, dir, physics string) *Store {
	t.Helper()
	s, err := Open(dir, physics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// indexed returns the record the store's index holds for id.
func indexed(s *Store, id string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.index[id]
	return rec, ok
}

// equalBits compares metrics for bit-exact equality (NaN == NaN, -0 != +0).
func equalBits(t *testing.T, got, want sweep.Metrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Errorf("metric %d name %q, want %q", i, got[i].Name, want[i].Name)
		}
		if gb, wb := math.Float64bits(got[i].Value), math.Float64bits(want[i].Value); gb != wb {
			t.Errorf("metric %s bits %#x, want %#x", want[i].Name, gb, wb)
		}
	}
}

func TestPutGetReopenBitExact(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	// Deliberately hostile values: NaN, infinities, negative zero,
	// denormals, and a value that needs all 17 digits in decimal.
	m := metrics(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, 0.1+0.2, 14.476623456789012)

	s := mustOpen(t, dir, "p1")
	if _, ok := s.Get(sc); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(sc, m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(sc)
	if !ok {
		t.Fatal("Get missed a freshly Put scenario")
	}
	equalBits(t, got, m)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, "p1")
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d records, want 1", s2.Len())
	}
	got, ok = s2.Get(sc)
	if !ok {
		t.Fatal("Get missed after reopen")
	}
	equalBits(t, got, m)
	rec, ok := indexed(s2, sc.ID())
	if !ok || rec.Scenario != sc {
		t.Fatalf("index[%s] = %+v, %t; want original scenario back", sc.ID(), rec.Scenario, ok)
	}
}

func TestPutIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	s := mustOpen(t, dir, "p1")
	for i := 0; i < 3; i++ {
		if err := s.Put(sc, metrics(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("segment holds %d lines, want 1 (Put must be a no-op on duplicates)", n)
	}
}

func TestPhysicsVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	s := mustOpen(t, dir, "p1")
	if err := s.Put(sc, metrics(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A new physics version must not serve the stale record...
	s2 := mustOpen(t, dir, "p2")
	if _, ok := s2.Get(sc); ok {
		t.Fatal("p2 store served a p1 record")
	}
	if st := s2.Stats(); st.Stale != 1 || st.Records != 0 {
		t.Fatalf("stats = %+v, want 1 stale, 0 records", st)
	}
	// ...and can record its own result for the same scenario.
	if err := s2.Put(sc, metrics(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// The original version still sees its own record, not p2's.
	s3 := mustOpen(t, dir, "p1")
	got, ok := s3.Get(sc)
	if !ok {
		t.Fatal("p1 record lost after p2 wrote")
	}
	equalBits(t, got, metrics(1))
}

func TestRecoveryTolerance(t *testing.T) {
	dir := t.TempDir()
	keep := scenario("icx", "jacobi", 1)
	torn := scenario("icx", "stream", 2)
	s := mustOpen(t, dir, "p1")
	if err := s.Put(keep, metrics(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(torn, metrics(4)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: tear the final record's line.
	data = data[:len(data)-7]
	// And a separate segment of assorted damage: garbage, a record
	// whose key does not hash to its ID, a record followed by a stray
	// brace, an overlong line, and an unterminated tail.
	evil := scenario("spr8480", "jacobi", 3)
	evilLine, err := EncodeRecord("p1", evil, metrics(9))
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(evilLine), `"id":"`+evil.ID()+`"`, `"id":"000000000000"`, 1)
	braced, err := EncodeRecord("p1", scenario("spr8480", "stream", 4), metrics(8))
	if err != nil {
		t.Fatal(err)
	}
	damage := "not json at all\n" +
		forged +
		strings.TrimSpace(string(braced)) + "}\n" +
		"{\"id\":\"deadbeef\"," + strings.Repeat("x", maxLineBytes+4096) + "\n" +
		string(evilLine) +
		"{\"id\":\"trunc" // torn tail, no newline
	if err := os.WriteFile(data2path(dir), []byte(damage), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, "p1")
	st := s2.Stats()
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records (%s), want 2 (keep + evil)", s2.Len(), st)
	}
	if _, ok := s2.Get(keep); !ok {
		t.Error("intact record lost in recovery")
	}
	if _, ok := s2.Get(evil); !ok {
		t.Error("valid record after damage lost in recovery")
	}
	if _, ok := s2.Get(torn); ok {
		t.Error("torn record served")
	}
	// Six corrupt lines: the torn tail of segment one, then garbage,
	// the forged ID, the braced record, the overlong line and the
	// unterminated tail of the damage segment.
	if st.Corrupt != 6 {
		t.Errorf("stats report %s, want 6 corrupt", st)
	}
}

// data2path names the damage segment so it sorts after the real one.
func data2path(dir string) string { return filepath.Join(dir, "seg-999999.jsonl") }

func TestDuplicateAcrossSegmentsFirstWins(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	s := mustOpen(t, dir, "p1")
	if err := s.Put(sc, metrics(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A second writer (different process) records the same scenario
	// with IDENTICAL bytes — the benign convergence case: first segment
	// wins on recovery and the re-encounter is a duplicate, no alarm.
	line, err := EncodeRecord("p1", sc, metrics(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data2path(dir), line, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, "p1")
	if st := s2.Stats(); st.Duplicates != 1 || st.Conflicts != 0 || st.Records != 1 {
		t.Fatalf("stats = %s, want 1 record 1 duplicate 0 conflicts", st)
	}
	got, _ := s2.Get(sc)
	equalBits(t, got, metrics(1))
}

// TestDuplicateWithDifferentBitsIsConflict is the regression for
// recovery silently laundering a real disagreement as a benign
// duplicate: the same scenario ID recorded with DIFFERENT metric bits
// must surface as a Conflict naming the ID, while resolution stays
// deterministic first-wins.
func TestDuplicateWithDifferentBitsIsConflict(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	s := mustOpen(t, dir, "p1")
	if err := s.Put(sc, metrics(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	line, err := EncodeRecord("p1", sc, metrics(2)) // same ID, different bits
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data2path(dir), line, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, "p1")
	st := s2.Stats()
	if st.Conflicts != 1 || st.Duplicates != 0 || st.Records != 1 {
		t.Fatalf("stats = %s, want 1 record 1 conflict 0 duplicates", st)
	}
	if len(st.ConflictIDs) != 1 || st.ConflictIDs[0] != sc.ID() {
		t.Fatalf("ConflictIDs = %v, want [%s]", st.ConflictIDs, sc.ID())
	}
	if !strings.Contains(st.String(), "CONFLICTING") {
		t.Fatalf("Stats.String() = %q does not surface the conflict", st)
	}
	got, _ := s2.Get(sc)
	equalBits(t, got, metrics(1)) // first record wins, deterministically
}

// TestSegmentRolloverRecoveryOrder is the regression for the lexical
// segment sort: seg-1000000 (unpadded overflow past the %06d width)
// sorts lexically BEFORE seg-999999, so first-record-wins recovery
// would resurrect the older record's rival. Numeric ordering must win.
func TestSegmentRolloverRecoveryOrder(t *testing.T) {
	dir := t.TempDir()
	sc := scenario("icx", "jacobi", 1)
	older, err := EncodeRecord("p1", sc, metrics(1))
	if err != nil {
		t.Fatal(err)
	}
	newer, err := EncodeRecord("p1", sc, metrics(2))
	if err != nil {
		t.Fatal(err)
	}
	// seg-999999 was written first (lower segment number), seg-1000000
	// after rollover. Recovery must keep seg-999999's record.
	if err := os.WriteFile(filepath.Join(dir, "seg-999999.jsonl"), older, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-1000000.jsonl"), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, "p1")
	got, ok := s.Get(sc)
	if !ok {
		t.Fatal("record lost across rollover")
	}
	equalBits(t, got, metrics(1))
	// And the next segment this process claims must be numbered past
	// the true maximum, not past the lexical maximum.
	if err := s.Put(scenario("icx", "stream", 2), metrics(3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "seg-1000001.jsonl")); err != nil {
		t.Fatalf("expected seg-1000001.jsonl after rollover: %v", err)
	}
}

func TestSeparateOpensUseSeparateSegments(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, "p1")
	if err := a.Put(scenario("icx", "jacobi", 1), metrics(1)); err != nil {
		t.Fatal(err)
	}
	b := mustOpen(t, dir, "p1")
	if err := b.Put(scenario("icx", "stream", 2), metrics(2)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2 (one per writer)", len(segs))
	}
	s := mustOpen(t, dir, "p1")
	if s.Len() != 2 {
		t.Fatalf("recovered %d records across segments, want 2", s.Len())
	}
}

// records lists the store's live records sorted by canonical key, so
// tests can compare two stores' contents record by record.
func records(s *Store) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, len(s.index))
	for _, rec := range s.index {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Scenario.Key() < out[j].Scenario.Key()
	})
	return out
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "p1")
	const writers, readers, n = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Overlapping seed ranges force concurrent duplicate Puts.
				sc := scenario("icx", "jacobi", uint64(i))
				if err := s.Put(sc, metrics(float64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sc := scenario("icx", "jacobi", uint64(i))
				if m, ok := s.Get(sc); ok && len(m) != 1 {
					t.Errorf("Get(%d) returned %d metrics", i, len(m))
					return
				}
				records(s)
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if s.Len() != n {
		t.Fatalf("store holds %d records, want %d", s.Len(), n)
	}
	s.Close()
	s2 := mustOpen(t, dir, "p1")
	if s2.Len() != n {
		t.Fatalf("reopen holds %d records, want %d (duplicate suppression failed)", s2.Len(), n)
	}
}

func TestOpenRejectsEmptyPhysics(t *testing.T) {
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Fatal("Open with empty physics version succeeded")
	}
}

func TestAccessorsAndSync(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "p1")
	if s.Physics() != "p1" {
		t.Fatalf("accessors: physics %q", s.Physics())
	}
	if err := s.Sync(); err != nil { // no active segment yet
		t.Fatal(err)
	}
	if err := s.Put(scenario("icx", "jacobi", 1), metrics(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().String(); !strings.Contains(got, "1 records in 1 segments") {
		t.Fatalf("Stats.String() = %q", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestSyncAfterCloseIsSafe locks down the shutdown contract sweepd
// relies on: when a forced shutdown closes the store while a late
// handler still calls Sync, the Sync is a clean no-op — never a panic
// or an error on a file that is already durable.
func TestSyncAfterCloseIsSafe(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "p1")
	if err := s.Put(scenario("icx", "jacobi", 9), metrics(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil no-op", err)
	}
	// Put, by contrast, must fail loudly: resurrecting a fresh segment
	// after Close would leave it unsynced and unclosed, silently
	// breaking the durability contract a forced daemon shutdown
	// depends on.
	if err := s.Put(scenario("icx", "jacobi", 10), metrics(4)); err == nil {
		t.Fatal("Put after Close succeeded; want an error routing the loss to the caller")
	}
	if s.Len() != 1 {
		t.Fatalf("store indexed a post-Close record: %d records, want 1", s.Len())
	}
}

// TestSyncDirtyTracking: Sync must be free on a clean store (callers
// sit on response paths and invoke it unconditionally) and must only
// clear the dirty mark on success, so a failed fsync is retried by
// the next Sync instead of silently vouched for.
func TestSyncDirtyTracking(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "p1")
	if s.dirty {
		t.Fatal("fresh store is dirty")
	}
	if err := s.Put(scenario("icx", "jacobi", 11), metrics(5)); err != nil {
		t.Fatal(err)
	}
	if !s.dirty {
		t.Fatal("Put did not mark the store dirty")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.dirty {
		t.Fatal("successful Sync did not mark the store clean")
	}
	if err := s.Sync(); err != nil { // clean: free no-op
		t.Fatal(err)
	}
	if err := s.Put(scenario("icx", "jacobi", 12), metrics(6)); err != nil {
		t.Fatal(err)
	}
	if !s.dirty {
		t.Fatal("second Put did not re-mark the store dirty")
	}
}

// TestPutAfterTornWriteDoesNotMergeLines: a failed append may leave a
// partial, newline-less line at the segment tail; the next successful
// Put must not glue its record onto that garbage (which would corrupt
// BOTH records on recovery). The poisoned store prepends a newline,
// so recovery drops only the torn line and keeps the new record.
func TestPutAfterTornWriteDoesNotMergeLines(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "p1")
	if err := s.Put(scenario("icx", "jacobi", 20), metrics(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: partial garbage lands, Put reports error.
	if _, err := s.active.Write([]byte(`{"id":"deadbeef","phys":"p1","key":"torn`)); err != nil {
		t.Fatal(err)
	}
	s.torn = true
	// The next Put must survive recovery intact.
	if err := s.Put(scenario("icx", "jacobi", 21), metrics(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, "p1")
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records, want both survivors of the torn write", s2.Len())
	}
	if _, ok := s2.Get(scenario("icx", "jacobi", 21)); !ok {
		t.Fatal("record appended after the torn write did not survive recovery")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("recovery counted %d corrupt lines, want exactly the torn one", st.Corrupt)
	}
}

// TestConcurrentPutSync hammers Put against Sync the way sweepd does:
// every expand handler syncs before responding while other expands
// are still writing through. Run under -race in CI.
func TestConcurrentPutSync(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "p1")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Put(scenario("icx", "jacobi", uint64(w*100+i)), metrics(float64(i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if err := s.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("store holds %d records, want 100", s.Len())
	}
}

func TestOpenFailsOnUnusableDir(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the store directory should be.
	path := filepath.Join(dir, "blocked")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "p1"); err == nil {
		t.Fatal("Open on a file path succeeded")
	}
	if _, err := Open(filepath.Join(path, "sub"), "p1"); err == nil {
		t.Fatal("Open under a file path succeeded")
	}
}

func TestStaleErrorMessage(t *testing.T) {
	line, err := EncodeRecord("p9", scenario("icx", "jacobi", 1), metrics(1))
	if err != nil {
		t.Fatal(err)
	}
	_, derr := DecodeRecord(line[:len(line)-1], "p1")
	if !isStale(derr) || !strings.Contains(derr.Error(), "p9") {
		t.Fatalf("stale decode error = %v", derr)
	}
}

func TestSegmentNumberingSkipsForeignNames(t *testing.T) {
	dir := t.TempDir()
	// A foreign file matching the glob but not the numbering scheme
	// must not break segment claiming.
	if err := os.WriteFile(filepath.Join(dir, "seg-zzz.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, "p1")
	if err := s.Put(scenario("icx", "jacobi", 1), metrics(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "seg-000001.jsonl")); err != nil {
		t.Fatalf("expected seg-000001.jsonl: %v", err)
	}
}
