// Command cloverbench is cloversim's campaign benchmark. It measures
// what a user of cmd/sweep waits for, a whole campaign, on four
// workloads: the paper grid simulated cold, a prime rank-count scan,
// the paper grid replayed from a warm store, and the paper grid served
// by a two-server sweepd fleet. Every campaign runs through the real
// CLI code path in-process, its output bytes are checked, and a traced
// pass breaks the time down by layer.
//
// Usage, from the repository root:
//
//	sh benchmark/run.sh --workload paper-cold --seed 0 --seconds 10 --trace 0
//
// or from this directory:
//
//	go run . -seed 0                     # all four workloads, each in a child process
//	go run . -seed 0 -trace 1            # plus the traced pass and per-layer metrics
//	go run . -workload warm-replay       # one workload, in this process
//	go run . -compare base.json head.json
//
// A run prints each metric with its unit and sample count, then as its
// last line one JSON object: correct, attempted, failed and metrics (the
// end-to-end metrics, or with -trace 1 the per-layer ones). It exits 1
// when any campaign fails or any correctness gate does not hold.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// childEnv marks a process the all-workloads mode started, so a test
// binary re-executing itself runs cli instead of its tests.
const childEnv = "CLOVERBENCH_CHILD"

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloverbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this workload in this process; empty runs every workload, each in a child process")
		seed      = fs.Uint64("seed", 0, "the campaign grid's -seed axis")
		seconds   = fs.Float64("seconds", 10, "time each workload's campaigns for at least this many seconds")
		trace     = fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		traceDir  = fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced pass writes <workload>.trace.json into")
		jsonOut   = fs.String("json", "", "also write the full results, samples included, to this file")
		smoke     = fs.Bool("smoke", false, "run each workload's shape on a four-cell grid")
		updateRef = fs.Bool("update-reference", false, "at seed 0, write this run's output hashes to reference.json instead of checking them")
		compare   = fs.Bool("compare", false, "compare result files against BENCHMARK.json's bounds: -compare base.json[,base2.json...] head.json[,head2.json...]")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "cloverbench: bad arguments; see -help")
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, updateRef: *updateRef, t0: processStart(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		return runAll(ctx, args, cfg, *jsonOut, stdout, stderr)
	}
	s, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "cloverbench: unknown workload %q\n", *name)
		return 2
	}
	if *smoke {
		s = s.smoke()
	}
	res := run(ctx, s, cfg)
	report(stdout, res, cfg)
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, cfg, []outcome{res}); err != nil {
			fmt.Fprintln(stderr, "cloverbench:", err)
			return 1
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "cloverbench: %s: %s\n", res.Workload, e)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// processStart is when the launcher started this process, so setup_s
// includes process start-up, or failing that now.
func processStart() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("CLOVERBENCH_T0"), 10, 64); err == nil {
		return time.Unix(0, ns)
	}
	return time.Now()
}

// report prints every metric with its unit and sample count, then the
// result line.
func report(w io.Writer, res outcome, cfg config) {
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT correct"
	}
	fmt.Fprintf(w, "%s seed=%d: %d campaigns, %d failed, %s\n", res.Workload, cfg.seed, res.Attempted, res.Failed, verdict)
	for _, m := range slices.Concat(res.E2E, res.Timing, res.Layers) {
		fmt.Fprintf(w, "  %-26s %14.6g %-5s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	shown := res.E2E
	if cfg.trace {
		shown = res.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range shown {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []outcome `json:"results"`
}

func writeResults(path string, cfg config, res []outcome) error {
	b, err := json.MarshalIndent(resultFile{cfg.seed, cfg.seconds, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, one after another, each in a fresh child
// process of this binary with the same flags (-smoke included).
func runAll(ctx context.Context, args []string, cfg config, jsonOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cloverbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "cloverbench-all-")
	if err != nil {
		fmt.Fprintln(stderr, "cloverbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var results []outcome
	for _, s := range specs {
		side := filepath.Join(tmp, s.name+".json")
		childArgs := append(append([]string{}, args...), "-workload", s.name, "-json", side)
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// On interrupt the child gets SIGINT, so it stops its campaign
		// and removes its scratch directory before exiting.
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.Env = append(os.Environ(), childEnv+"=1", "CLOVERBENCH_T0="+strconv.FormatInt(time.Now().UnixNano(), 10))
		runErr := cmd.Run()
		f, err := readResults(side)
		if err != nil || len(f.Results) != 1 {
			results = append(results, outcome{Workload: s.name, Errors: []string{fmt.Sprintf("child process: %v, results: %v", runErr, err)}})
			continue
		}
		results = append(results, f.Results[0])
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-12s %-8s %9s %12s %10s %11s %10s\n", "workload", "correct", "campaigns", "campaign_s", "cpu_s", "peak_rss_mb", "setup_s")
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
		v := map[string]float64{}
		for _, m := range append(r.E2E, r.Timing...) {
			v[m.Name] = m.Value
		}
		fmt.Fprintf(stdout, "%-12s %-8t %9d %12.4f %10.4f %11.2f %10.4f\n", r.Workload, r.Correct, r.Attempted,
			v["campaign_s"], v["cpu_s"], v["peak_rss_mb"], v["setup_s"])
	}
	if jsonOut != "" {
		if err := writeResults(jsonOut, cfg, results); err != nil {
			fmt.Fprintln(stderr, "cloverbench:", err)
			return 1
		}
	}
	return code
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(b, &f)
}
