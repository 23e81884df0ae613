package store

// Stores written by older builds. Those builds sealed each segment
// seg-N.jsonl with an index file seg-N.idx and opened stores through
// it. This store never reads such files: the tests below put them
// beside real segments — intact, damaged, stale — and check that Open
// serves exactly what the segments hold, and that nothing writes one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sealStore writes n records and closes the store, returning the
// records written.
func sealStore(t *testing.T, dir, physics string, n int) []Record {
	t.Helper()
	s, err := Open(dir, physics)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < n; i++ {
		sc := scenario("icx", "jacobi", uint64(i+1))
		m := metrics(float64(i), math.NaN(), 0.1+float64(i))
		if err := s.Put(sc, m); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{ID: sc.ID(), Scenario: sc, Metrics: m})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeOldIndex writes the index file an older build sealed seg with,
// describing its current bytes, and returns the file's path. The
// format is text:
//
//	cloversim-store-idx v1 size=<segment bytes> entries=<count>
//	<id> <offset> <length> <canonical hash:16-hex> <physics>
//	...
//	crc32 <8-hex checksum of everything above>
func writeOldIndex(t *testing.T, seg string) string {
	t.Helper()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var entries bytes.Buffer
	n, off := 0, 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		body := bytes.TrimSuffix(line, []byte("\n"))
		var lr lineRecord
		if json.Unmarshal(body, &lr) == nil {
			if rec, err := DecodeRecord(body, lr.Physics); err == nil {
				canon, _ := EncodeRecord(lr.Physics, rec.Scenario, rec.Metrics)
				h := fnv.New64a()
				h.Write(bytes.TrimSuffix(canon, []byte("\n")))
				fmt.Fprintf(&entries, "%s %d %d %016x %s\n", rec.ID, off, len(body), h.Sum64(), lr.Physics)
				n++
			}
		}
		off += len(line)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "cloversim-store-idx v1 size=%d entries=%d\n", len(data), n)
	buf.Write(entries.Bytes())
	fmt.Fprintf(&buf, "crc32 %08x\n", crc32.ChecksumIEEE(buf.Bytes()))
	path := strings.TrimSuffix(seg, ".jsonl") + ".idx"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// indexFiles snapshots the .idx files in dir: path -> bytes.
func indexFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.idx"))
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = data
	}
	return out
}

// openIgnoringIndexes opens dir under physics and checks that it
// serves exactly what a copy of dir's segments alone serves: equal
// Stats and bit-identical Records. Open must leave the index files
// untouched. It returns the store opened on dir.
func openIgnoringIndexes(t *testing.T, dir, physics string) *Store {
	t.Helper()
	before := indexFiles(t, dir)
	clean := t.TempDir()
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(clean, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := mustOpen(t, clean, physics)
	got := mustOpen(t, dir, physics)
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Fatalf("stats with index files = %+v, without = %+v", got.Stats(), want.Stats())
	}
	gotRecs, wantRecs := records(got), records(want)
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%d records with index files, %d without", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i].ID != wantRecs[i].ID || gotRecs[i].Scenario != wantRecs[i].Scenario {
			t.Fatalf("record %d: %s with index files, %s without", i, gotRecs[i].ID, wantRecs[i].ID)
		}
		equalBits(t, gotRecs[i].Metrics, wantRecs[i].Metrics)
	}
	if after := indexFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("Open created, removed or rewrote an index file")
	}
	return got
}

// TestSidecarRecoveryBitExact: a directory an older build left, one
// segment with an intact index file and one with a garbage one, opens
// to the same live set, Stats and Records as its segments alone; Put,
// Compact and Close then create no index file and leave the old ones
// as they were.
func TestSidecarRecoveryBitExact(t *testing.T) {
	dir := t.TempDir()
	live := sealStore(t, dir, "p1", 4)
	writeOldIndex(t, filepath.Join(dir, "seg-000001.jsonl"))
	// A second segment: a duplicate of the first record and a new one.
	extra := scenario("spr", "stream", 40)
	var second []byte
	for _, rec := range []Record{live[0], {Scenario: extra, Metrics: metrics(40)}} {
		line, err := EncodeRecord("p1", rec.Scenario, rec.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		second = append(second, line...)
	}
	live = append(live, Record{ID: extra.ID(), Scenario: extra, Metrics: metrics(40)})
	if err := os.WriteFile(filepath.Join(dir, "seg-000002.jsonl"), second, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000002.idx"), []byte("not an index\x00\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := indexFiles(t, dir)

	s := openIgnoringIndexes(t, dir, "p1")
	checkLive(t, s, live)
	sc := scenario("icx", "tealeaf", 41)
	if err := s.Put(sc, metrics(41)); err != nil {
		t.Fatal(err)
	}
	live = append(live, Record{ID: sc.ID(), Scenario: sc, Metrics: metrics(41)})
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sc = scenario("icx", "tealeaf", 42)
	if err := s.Put(sc, metrics(42)); err != nil {
		t.Fatal(err)
	}
	live = append(live, Record{ID: sc.ID(), Scenario: sc, Metrics: metrics(42)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := indexFiles(t, dir); !reflect.DeepEqual(got, old) {
		t.Fatalf("Put, Compact and Close touched index files: %d before, %d after", len(old), len(got))
	}
	checkLive(t, openIgnoringIndexes(t, dir, "p1"), live)
}

// TestSidecarCorruptionFallsBackToReplay: an older build's index file
// damaged in any of the ways its reader rejected changes nothing — the
// segment is replayed either way — and stays as it was.
func TestSidecarCorruptionFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	recs := sealStore(t, dir, "p1", 5)
	idx := writeOldIndex(t, filepath.Join(dir, "seg-000001.jsonl"))
	orig, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"bitflip":     append(append([]byte{}, orig[:len(orig)/2]...), append([]byte{orig[len(orig)/2] ^ 0x40}, orig[len(orig)/2+1:]...)...),
		"torn":        orig[:len(orig)-7],
		"empty":       {},
		"garbage":     []byte("not a sidecar at all\n"),
		"bad-magic":   bytes.Replace(orig, []byte("v1"), []byte("v9"), 1),
		"no-trailer":  orig[:bytes.LastIndex(orig[:len(orig)-1], []byte("\n"))+1],
		"wrong-size":  bytes.Replace(orig, []byte("size="), []byte("size=9"), 1),
		"neg-offsets": bytes.Replace(orig, []byte(" 0 "), []byte(" -1 "), 1),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(idx, data, 0o644); err != nil {
				t.Fatal(err)
			}
			checkLive(t, openIgnoringIndexes(t, dir, "p1"), recs)
		})
	}
}

// TestSidecarSizeGuard: records appended to a segment after an older
// build wrote its index file are served.
func TestSidecarSizeGuard(t *testing.T) {
	dir := t.TempDir()
	recs := sealStore(t, dir, "p1", 2)
	seg := filepath.Join(dir, "seg-000001.jsonl")
	writeOldIndex(t, seg)

	extra := scenario("spr", "stream", 99)
	line, err := EncodeRecord("p1", extra, metrics(42))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := openIgnoringIndexes(t, dir, "p1")
	checkLive(t, s, append(recs, Record{ID: extra.ID(), Scenario: extra, Metrics: metrics(42)}))
}

// TestSidecarServesForeignPhysics: an older build's index file over a
// segment holding two physics versions changes neither version's view:
// each Open serves its own record and counts the other stale.
func TestSidecarServesForeignPhysics(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	scA, scB := scenario("icx", "jacobi", 1), scenario("icx", "stream", 2)
	lineA, err := EncodeRecord("p1", scA, metrics(1))
	if err != nil {
		t.Fatal(err)
	}
	lineB, err := EncodeRecord("p2", scB, metrics(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(lineA, lineB...), 0o644); err != nil {
		t.Fatal(err)
	}
	writeOldIndex(t, seg)

	for physics, want := range map[string]Record{
		"p1": {ID: scA.ID(), Scenario: scA, Metrics: metrics(1)},
		"p2": {ID: scB.ID(), Scenario: scB, Metrics: metrics(2)},
	} {
		s := openIgnoringIndexes(t, dir, physics)
		if st := s.Stats(); st.Records != 1 || st.Stale != 1 {
			t.Fatalf("%s stats = %s, want 1 record 1 stale", physics, st)
		}
		checkLive(t, s, []Record{want})
	}
}

// TestSidecarDuplicateClassification: duplicates of a record in a
// segment an older build indexed are classified by replay — identical
// bits a duplicate, different bits a conflict — and the first record
// wins.
func TestSidecarDuplicateClassification(t *testing.T) {
	dir := t.TempDir()
	recs := sealStore(t, dir, "p1", 1)
	writeOldIndex(t, filepath.Join(dir, "seg-000001.jsonl"))
	sc := recs[0].Scenario

	// A second segment re-records the same scenario twice: once with
	// identical bits (benign) and once with different bits (conflict).
	same, err := EncodeRecord("p1", sc, recs[0].Metrics)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := EncodeRecord("p1", sc, metrics(777))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000002.jsonl"), append(same, diff...), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openIgnoringIndexes(t, dir, "p1")
	st := s.Stats()
	if st.Duplicates != 1 || st.Conflicts != 1 || st.Records != 1 || !reflect.DeepEqual(st.ConflictIDs, []string{sc.ID()}) {
		t.Fatalf("stats = %+v, want 1 record, 1 duplicate, 1 conflict naming %s", st, sc.ID())
	}
	checkLive(t, s, recs)
}
