package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric declarations and the end-to-end bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from the repository root: the working
// directory or its parent.
func readSpec() (benchSpec, error) {
	var s benchSpec
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var b []byte
		if b, err = os.ReadFile(p); err == nil {
			return s, json.Unmarshal(b, &s)
		}
	}
	return s, err
}

// runCompare applies each end-to-end bound to every (workload, metric)
// of two result sets and prints better, worse, within or unresolved.
// Each side is a comma-separated list of -json files; with one file a
// side's values are that run's samples where it kept them. Unresolved
// means the base's own interquartile spread exceeds the bound and the
// head does not beat every base value. The exit code is 1 when any pair
// is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "cloverbench: -compare wants two arguments: base.json[,...] head.json[,...]")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(stderr, "cloverbench: reading BENCHMARK.json:", err)
		return 2
	}
	var sides [2][]resultFile
	for i, list := range args {
		for _, p := range strings.Split(list, ",") {
			f, err := readResults(p)
			if err != nil {
				fmt.Fprintf(stderr, "cloverbench: %s: %v\n", p, err)
				return 2
			}
			sides[i] = append(sides[i], f)
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "head", "delta", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, b := range spec.EndToEnd {
			base, head := values(sides[0], w.Name, b.Name), values(sides[1], w.Name, b.Name)
			if len(base) == 0 || len(head) == 0 {
				continue
			}
			bm, hm := median(base), median(head)
			delta := (hm - bm) / bm
			worse := delta
			if b.Better == "higher" {
				worse = -delta
			}
			sp := spread(base)
			verdict := "within"
			switch {
			case sp > b.Bound && beatsAll(head, base, b.Better):
				verdict = "better"
			case sp > b.Bound:
				verdict = "unresolved"
			case worse > b.Bound:
				verdict, code = "worse", 1
			case worse < -b.Bound:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "%-12s %-16s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				w.Name, b.Name, bm, hm, 100*delta, 100*b.Bound, 100*sp, verdict)
		}
	}
	return code
}

// values collects one side's readings of a metric: one per file, or the
// samples of a single file.
func values(files []resultFile, workload, name string) []float64 {
	var out []float64
	for _, f := range files {
		for _, r := range f.Results {
			if r.Workload != workload {
				continue
			}
			if s := r.Samples[name]; len(files) == 1 && len(s) > 0 {
				return s
			}
			for _, m := range r.E2E {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// beatsAll reports whether every head value is better than every base value.
func beatsAll(head, base []float64, better string) bool {
	h, b := sorted(head), sorted(base)
	if better == "higher" {
		return h[0] > b[len(b)-1]
	}
	return h[len(h)-1] < b[0]
}
