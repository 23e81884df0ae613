package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the all-workloads mode re-execute the test binary as
// its child processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs all four workload shapes on the four-cell grid, traced,
// in child processes, and checks what they report and the traces they
// write.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-seed", "0", "-seconds", "0", "-trace", "1", "-trace-dir", dir, "-json", results}
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cli %v = %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	f, err := readResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != len(specs) || len(spec.Workloads) != len(specs) {
		t.Fatalf("%d results and %d workloads in BENCHMARK.json, want one per workload (%d)", len(f.Results), len(spec.Workloads), len(specs))
	}
	for i, w := range spec.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark's is %s", i, w.Name, specs[i].name)
		}
	}
	for _, r := range f.Results {
		s, _ := specByName(r.Workload)
		// The gate compares every campaign's bytes, the traced ones
		// included, with the first untraced campaign's.
		if !r.Correct || r.Failed != 0 || r.Attempted < minReps+s.smoke().tracedReps {
			t.Errorf("%s: correct=%t attempted=%d failed=%d errors=%v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Errors)
		}
		checkNames(t, r.Workload+" end-to-end", r.E2E, spec.EndToEnd)
		checkNames(t, r.Workload+" per-layer", r.Layers, spec.PerLayer)
		checkTrace(t, filepath.Join(dir, r.Workload+".trace.json"))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts that a run emits exactly the metrics BENCHMARK.json
// declares, with the declared units.
func checkNames(t *testing.T, what string, got []metric, want []bound) {
	t.Helper()
	units := map[string]string{}
	for _, b := range want {
		units[b.Name] = b.Unit
	}
	seen := map[string]bool{}
	for _, m := range got {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", what, m.Name)
		}
		if u, ok := units[m.Name]; !ok || u != m.Unit || seen[m.Name] {
			t.Errorf("%s: metric %s [%s] is undeclared, has another unit or repeats", what, m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("%s: declared metric %s not emitted", what, name)
		}
	}
}

// checkTrace reads a Chrome trace back and checks that spans nest
// inside their parents and that the self times add up to the busy time,
// counted independently by sweeping over the span boundaries.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int64 `json:"id"`
				Parent int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var spans []span
	byID := map[int64]span{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("%s: event phase %q, want complete events", path, e.Ph)
		}
		ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
		s := span{ID: e.Args.ID, Parent: e.Args.Parent, Name: e.Name, Start: ns(e.Ts), End: ns(e.Ts) + ns(e.Dur)}
		if _, dup := byID[s.ID]; dup || s.ID == 0 || s.End < s.Start {
			t.Fatalf("%s: bad or repeated span %+v", path, s)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	const slack = time.Microsecond // the file rounds times to nanoseconds
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start-slack || s.End > p.End+slack {
			t.Errorf("%s: span %s [%v, %v] not inside its parent %+v", path, s.Name, s.Start, s.End, p)
		}
	}
	var selfSum time.Duration
	for _, d := range selfTimes(spans) {
		selfSum += d
	}
	if busy := busyTime(spans); (selfSum - busy).Abs() > time.Duration(len(spans))*slack {
		t.Errorf("%s: self times sum to %v, busy time is %v", path, selfSum, busy)
	}
}

// busyTime integrates, over time, the number of open spans that have no
// open child: the time each lane of work is busy in its innermost layer.
func busyTime(spans []span) time.Duration {
	var cuts []time.Duration
	byID := map[int64]span{}
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
		byID[s.ID] = s
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var busy time.Duration
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		open := map[int64]bool{}
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi {
				open[s.ID] = true
			}
		}
		parents := map[int64]bool{} // open spans with an open child are not innermost
		for id := range open {
			if p := byID[id].Parent; open[p] {
				parents[p] = true
			}
		}
		busy += time.Duration(len(open)-len(parents)) * (hi - lo)
	}
	return busy
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(70)}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.1", Start: ms(20), End: ms(25)},
		{ID: 5, Parent: 1, Name: "c", Start: ms(90), End: ms(95)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(100 - 60 - 5), 2: ms(35), 3: ms(40), 4: ms(5), 5: ms(5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if b := busyTime(spans); sum != b {
		t.Errorf("self times sum to %v, busy time %v", sum, b)
	}
}

// TestStats pins the quartiles to Python's statistics.quantiles(n=4).
func TestStats(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{0.5, 0.9, 0.7, 0.8}, 0.55, 0.875},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rss []float64, setup float64) string {
		r := outcome{Workload: "paper-cold", Correct: true, Attempted: len(rss),
			E2E:     []metric{{"peak_rss_mb", "MB", median(rss), len(rss)}, {"setup_s", "s", setup, 1}},
			Samples: map[string][]float64{"peak_rss_mb": rss}}
		p := filepath.Join(dir, name)
		if err := writeResults(p, config{}, []outcome{r}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", []float64{5.0, 5.1, 5.2}, 0.40)
	slower := write("slower.json", []float64{6.5, 6.6, 6.7}, 0.41)
	noisy := write("noisy.json", []float64{4, 5, 7}, 0.40)
	faster := write("faster.json", []float64{3.0, 3.1, 3.2}, 0.20)
	for _, c := range []struct {
		base, head string
		code       int
		verdicts   []string // peak_rss_mb, then setup_s
	}{
		{base, base, 0, []string{"within", "within"}},
		{base, slower, 1, []string{"worse", "within"}},
		{base, faster, 0, []string{"better", "better"}},
		{noisy, slower, 0, []string{"unresolved", "within"}},
		{noisy, faster, 0, []string{"better", "better"}},
		{base + "," + slower, base + "," + slower, 0, []string{"unresolved", "within"}},
	} {
		var stdout, stderr bytes.Buffer
		code := runCompare([]string{c.base, c.head}, &stdout, &stderr)
		var got []string
		for _, line := range strings.Split(stdout.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 0 {
				got = append(got, f[len(f)-1])
			}
		}
		if code != c.code || strings.Join(got, ",") != strings.Join(c.verdicts, ",") {
			t.Errorf("compare %s %s = %d %v, want %d %v\n%s%s", filepath.Base(c.base), filepath.Base(c.head),
				code, got, c.code, c.verdicts, stdout.String(), stderr.String())
		}
	}
}

// allowed is the repository API the benchmark may call: the entry points
// the planned simplifications keep, plus the data types their
// signatures carry. Methods on the values they return are not listed.
var allowed = map[string][]string{
	"cloversim":                     {"RunScenarioContext", "PhysicsVersion"},
	"cloversim/internal/sweepcli":   {"MainWithRunnerContext"},
	"cloversim/internal/store":      {"Open", "Store"},
	"cloversim/internal/sweepd":     {"New", "ResultStore"},
	"cloversim/internal/workload":   {"Resolve"},
	"cloversim/internal/cloverleaf": {"ModelNode", "TrafficOptions"},
	"cloversim/internal/bench":      {"RunStore", "RunCopy", "StoreOptions", "CopyOptions"},
	"cloversim/internal/memsim":     {"Counts"},
	"cloversim/internal/sweep":      {"Scenario", "Metrics"},
}

// TestAllowedAPI keeps the benchmark off code the planned
// simplifications delete: it imports only the standard library and the
// packages above, and names only the identifiers listed for each.
func TestAllowedAPI(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]string{} // import name -> path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			_, repo := allowed[path]
			first, _, _ := strings.Cut(path, "/")
			if !repo && (first == "cloversim" || strings.Contains(first, ".")) {
				t.Errorf("%s imports %s, outside the allowed API", name, path)
				continue
			}
			if repo {
				local[filepath.Base(path)] = path
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if path, ok := local[id.Name]; ok && !contains(allowed[path], sel.Sel.Name) {
				t.Errorf("%s: %s uses %s.%s, outside the allowed API", name, fset.Position(sel.Pos()), path, sel.Sel.Name)
			}
			return true
		})
	}
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
