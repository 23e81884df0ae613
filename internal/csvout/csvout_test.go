package csvout

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	tb := New("ranks", "ratio")
	tb.Add(1, 2.0)
	tb.Add(72, 1.218)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "ranks,ratio\n1,2.0000\n72,1.2180\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestSaveCSVCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deep", "out.csv")
	tb := New("a")
	tb.Add("x")
	if err := tb.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a\nx\n") {
		t.Fatalf("file content %q", data)
	}
}

func TestFormatAlignment(t *testing.T) {
	tb := New("loop", "byte/it")
	tb.Add("am04", 24.05)
	tb.Add("pdv01", 120.77)
	out := tb.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("format lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestMixedTypes(t *testing.T) {
	tb := New("a", "b", "c", "d")
	tb.Add(1, "s", true, float32(1.5))
	if tb.Rows[0][2] != "true" || tb.Rows[0][3] != "1.5000" {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}

func TestFloats(t *testing.T) {
	tb := New("ranks", "ratio", "loop")
	tb.Add(1, 2.0, "am04")
	tb.Add(72, 1.218, "ac01")
	got, err := tb.Floats("ratio")
	if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 1.218 {
		t.Fatalf("ratio column %v (%v)", got, err)
	}
	if _, err := tb.Floats("loop"); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("non-numeric column: err %v", err)
	}
	if _, err := tb.Floats("nope"); err == nil {
		t.Error("missing column accepted")
	}
}
