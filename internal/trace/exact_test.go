package trace_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cloversim/internal/cloverleaf"
	"cloversim/internal/machine"
	"cloversim/internal/sweep"
	"cloversim/internal/trace"
	"cloversim/internal/workload"
)

// exactCells is the exactness grid on a reduced mesh: every machine
// preset x mode x workload at full node, plus CloverLeaf at the prime
// 37 and 71 ranks on icx and spr8480.
func exactCells() []sweep.Scenario {
	mesh := func(wl string) sweep.Mesh {
		if wl == "cloverleaf" {
			return sweep.Mesh{X: 768, Y: 768}
		}
		return sweep.Mesh{X: 512, Y: 4}
	}
	var cells []sweep.Scenario
	for _, m := range machine.Names() {
		for _, mode := range sweep.AllModes() {
			for _, wl := range workload.Names() {
				cells = append(cells, sweep.Scenario{Machine: m, Workload: wl, Mode: mode, Mesh: mesh(wl), MaxRows: 2})
			}
		}
	}
	for _, m := range []string{"icx", "spr8480"} {
		for _, ranks := range []int{37, 71} {
			for _, mode := range sweep.AllModes() {
				cells = append(cells, sweep.Scenario{Machine: m, Workload: "cloverleaf", Mode: mode, Ranks: ranks,
					Mesh: mesh("cloverleaf"), MaxRows: 2})
			}
		}
	}
	return cells
}

// cellOutcome is what a cell computes through the memo: the node model
// and its traffic study for CloverLeaf (the rest of its metrics come
// from microbenchmarks that replay no loops), the metrics otherwise.
type cellOutcome struct {
	node    *cloverleaf.NodeModel
	metrics sweep.Metrics
	err     error
}

func runCell(s sweep.Scenario, memo *trace.Memo) cellOutcome {
	var out cellOutcome
	if s.Workload != "cloverleaf" {
		out.metrics, out.err = workload.Run(s, memo)
		return out
	}
	_, cfg, err := workload.Resolve(s)
	if err != nil {
		return cellOutcome{err: err}
	}
	out.node, out.err = cloverleaf.ModelNode(cloverleaf.TrafficOptions{
		Machine: cfg.Machine, Ranks: cfg.Ranks, GridX: cfg.MeshX, GridY: cfg.MeshY, MaxRows: cfg.MaxRows,
		AlignArrays: true, NTStores: cfg.Mode.NTStores, OptimizeLoops: cfg.Mode.OptimizeLoops,
		SpecI2MOff: cfg.Mode.SpecI2MOff, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed, Memo: memo,
	})
	return out
}

// TestSharedMemoMatchesFreshReplays: one memo shared by every cell,
// with cells running concurrently, yields bit-identical metrics, node
// models and traffic studies to replaying every loop, and it does serve
// loops.
func TestSharedMemoMatchesFreshReplays(t *testing.T) {
	cells := exactCells()
	shared := trace.NewMemo()
	got := make([]cellOutcome, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i] = runCell(cells[i], shared)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, s := range cells {
		want := runCell(s, trace.NewMemoNoSharing())
		if diff := compareOutcomes(got[i], want); diff != "" {
			t.Errorf("%s: %s", s.Label(), diff)
		}
	}
	if st := shared.Stats(); st.Hits == 0 || st.Replays == 0 {
		t.Errorf("shared memo stats %+v: want hits and replays", st)
	}
}

func compareOutcomes(got, want cellOutcome) string {
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	if len(got.metrics) != len(want.metrics) {
		return fmt.Sprintf("%d metrics, want %d", len(got.metrics), len(want.metrics))
	}
	for i := range got.metrics {
		g, w := got.metrics[i], want.metrics[i]
		if g.Name != w.Name || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return fmt.Sprintf("metric %s = %v, want %s = %v", g.Name, g.Value, w.Name, w.Value)
		}
	}
	if !reflect.DeepEqual(got.node, want.node) {
		return "node models or traffic studies differ"
	}
	return ""
}
