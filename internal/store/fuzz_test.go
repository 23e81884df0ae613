package store

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloversim/internal/sweep"
)

// FuzzDecodeRecord throws arbitrary bytes at the JSONL record decoder.
// The invariants: never panic, and any line that decodes successfully
// must survive a re-encode/re-decode round trip bit-identically (the
// decoder only accepts records the store could itself have written).
func FuzzDecodeRecord(f *testing.F) {
	nt, _ := sweep.ModeByName("nt")
	seedScenario := sweep.Scenario{Machine: "icx", Workload: "jacobi", Mode: nt,
		Ranks: 4, Mesh: sweep.Mesh{X: 1536, Y: 1536}, Threads: 8, MaxRows: 8, Seed: 0x5eed}
	var m sweep.Metrics
	m.Add("store_ratio", 1.3245)
	m.Add("weird", math.NaN())
	if line, err := EncodeRecord("p1", seedScenario, m); err == nil {
		f.Add(line)
	}
	f.Add([]byte(`{"id":"x","phys":"p1","key":"","metrics":null}`))
	f.Add([]byte(`{"id":"","phys":"","key":"machine= workload= mode=","metrics":[{"name":"a","bits":"zz"}]}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"id":"a","phys":"p1","key":"k","metrics":[]}{"trailing":1}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeRecord(line, "p1")
		if err != nil {
			return
		}
		// Accepted records must be canonical: re-encoding reproduces a
		// decodable record with the same ID and bit-identical metrics.
		line2, err := EncodeRecord("p1", rec.Scenario, rec.Metrics)
		if err != nil {
			t.Fatalf("accepted record %s does not re-encode: %v", rec.ID, err)
		}
		rec2, err := DecodeRecord(line2, "p1")
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.ID != rec.ID || rec2.Scenario != rec.Scenario {
			t.Fatalf("round trip changed identity: %+v vs %+v", rec, rec2)
		}
		if len(rec2.Metrics) != len(rec.Metrics) {
			t.Fatalf("round trip changed metric count")
		}
		for i := range rec.Metrics {
			if rec.Metrics[i].Name != rec2.Metrics[i].Name ||
				math.Float64bits(rec.Metrics[i].Value) != math.Float64bits(rec2.Metrics[i].Value) {
				t.Fatalf("round trip changed metric %d: %+v vs %+v", i, rec.Metrics[i], rec2.Metrics[i])
			}
		}
	})
}

// FuzzSegmentRecovery fuzzes the whole segment scan path: arbitrary
// segment bytes must recover without panicking or erroring, and every
// record the recovery indexes must be servable.
func FuzzSegmentRecovery(f *testing.F) {
	nt, _ := sweep.ModeByName("nt")
	sc := sweep.Scenario{Machine: "icx", Mode: nt, Seed: 1}
	var m sweep.Metrics
	m.Add("a", 1)
	line, _ := EncodeRecord("p1", sc, m)
	f.Add(append([]byte("garbage\n"), line...))
	f.Add(bytes.Repeat([]byte("x"), 4096))
	f.Add([]byte("\n\n\n"))
	f.Add(line[:len(line)-3])

	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), segment, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, "p1")
		if err != nil {
			t.Fatalf("recovery errored on damaged segment: %v", err)
		}
		defer s.Close()
		for _, rec := range records(s) {
			if got, ok := s.Get(rec.Scenario); !ok || len(got) != len(rec.Metrics) {
				t.Fatalf("indexed record %s not servable", rec.ID)
			}
		}
		if s.Len() != s.Stats().Records {
			t.Fatalf("Len %d disagrees with Stats.Records %d", s.Len(), s.Stats().Records)
		}
	})
}

// FuzzReadLine checks the bounded line reader against arbitrary input:
// it must return every line of the input in order, each without its
// terminator and cut to the bound, and stop at the final one (no
// invented or lost lines).
func FuzzReadLine(f *testing.F) {
	f.Add([]byte("a\nb\nc"))
	f.Add([]byte(strings.Repeat("x", maxLineBytes+10) + "\nok\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(data), 16) // tiny buffer forces ErrBufferFull path
		want := bytes.Split(data, []byte("\n"))
		for i := 0; ; i++ {
			line, err := readLine(r)
			if i >= len(want) {
				t.Fatal("readLine invented lines")
			}
			w := want[i]
			if len(w) > maxLineBytes {
				w = w[:maxLineBytes]
			}
			if !bytes.Equal(line, w) {
				t.Fatalf("line %d: readLine returned %d bytes %.40q, want %d bytes %.40q", i, len(line), line, len(w), w)
			}
			if err != nil {
				if i != len(want)-1 {
					t.Fatalf("readLine stopped after %d of %d lines: %v", i+1, len(want), err)
				}
				return
			}
		}
	})
}
