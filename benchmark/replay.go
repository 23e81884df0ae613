package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"cloversim"
	"cloversim/internal/bench"
	"cloversim/internal/cloverleaf"
	"cloversim/internal/memsim"
	"cloversim/internal/store"
	"cloversim/internal/workload"
)

// campaignLayers turns the in-run spans into per-layer metrics. The
// campaign-wide ones are medians over the traced repetitions. The
// workload-layer ones are medians over the traced campaigns that
// simulated: the repetitions themselves on cold workloads, the
// populating campaign on warm ones, whose repetitions simulate nothing.
func campaignLayers(spans []span, cells, workers int) []metric {
	self := selfTimes(spans)
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var wall, selfs, cold, requests []float64
	var runs, clover, busy, cellTimes []float64
	for _, root := range spans {
		if root.Parent != 0 || root.Name != "sweepcli.campaign" {
			continue
		}
		var run, cl float64
		var nRun, nExpand int
		for _, k := range kids[root.ID] {
			switch k.Name {
			case "workload.run":
				d := k.dur().Seconds()
				run += d
				nRun++
				cellTimes = append(cellTimes, d)
				if k.Detail == "cloverleaf" {
					cl += d
				}
			case "sweepd.expand":
				nExpand++
			}
		}
		if nRun > 0 {
			runs, clover = append(runs, run), append(clover, cl)
			busy = append(busy, run/(float64(workers)*root.dur().Seconds()))
		}
		if root.Detail == "populate" {
			continue
		}
		wall = append(wall, root.dur().Seconds())
		selfs = append(selfs, self[root.ID].Seconds())
		cold = append(cold, float64(nRun))
		requests = append(requests, float64(nExpand))
	}
	perRequest := 0.0
	if r := median(requests); r > 0 {
		perRequest = float64(cells) / r
	}
	return []metric{
		{"sweepcli.campaign_s", "s", median(wall), len(wall)},
		{"sweepcli.self_s", "s", median(selfs), len(selfs)},
		{"sweep.cells_cold", "count", median(cold), len(cold)},
		{"sweep.cells_warm", "count", float64(cells) - median(cold), len(cold)},
		{"sweep.pool_busy_ratio", "1", median(busy), len(busy)},
		{"workload.run_s", "s", median(runs), len(runs)},
		{"workload.cloverleaf_s", "s", median(clover), len(clover)},
		{"workload.cell_p50_s", "s", median(cellTimes), len(cellTimes)},
		{"workload.cell_max_s", "s", maxOf(cellTimes), len(cellTimes)},
		{"sweepd.requests", "count", median(requests), len(requests)},
		{"sweepd.cells_per_request", "count", perRequest, len(requests)},
	}
}

// replay feeds the cells the traced pass simulated through each lower
// layer's public calls, one call at a time and outside the campaign
// timeline, and returns those layers' metrics.
func (h *harness) replay(ctx context.Context, tr *tracer) []metric {
	_, cells := tr.snapshot()
	if len(cells) != len(h.cells) {
		h.fail("the traced pass simulated %d distinct cells, the campaign has %d", len(cells), len(h.cells))
	}
	out := h.replayStore(tr, cells)
	out = append(out, h.replaySweepd(ctx, tr, cells)...)
	return append(out, h.replayCloverLeaf(tr, cells)...)
}

func (h *harness) replayDir() string { return filepath.Join(h.dir, "replay-store") }

// replayStore writes the cells into a fresh store, seals it, reopens it
// and reads every cell back.
func (h *harness) replayStore(tr *tracer, cells []simulated) []metric {
	root := tr.begin("replay.store", "", 0)
	defer tr.end(root)
	st, err := store.Open(h.replayDir(), cloversim.PhysicsVersion)
	if err != nil {
		h.fail("store replay: %v", err)
		return nil
	}
	put := tr.timed("store.put", root, func() {
		for _, c := range cells {
			if e := st.Put(c.sc, c.m); e != nil && err == nil {
				err = e
			}
		}
	})
	closing := tr.timed("store.close", root, func() {
		if e := st.Close(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		h.fail("store replay: %v", err)
		return nil
	}
	open := tr.timed("store.open", root, func() { st, err = store.Open(h.replayDir(), cloversim.PhysicsVersion) })
	if err != nil {
		h.fail("store replay: %v", err)
		return nil
	}
	hits := 0
	get := tr.timed("store.get", root, func() {
		for _, c := range cells {
			if _, ok := st.Get(c.sc); ok {
				hits++
			}
		}
	})
	if err := st.Close(); err != nil {
		h.fail("store replay: %v", err)
	}
	if hits != len(cells) {
		h.fail("store replay: %d of %d cells read back", hits, len(cells))
	}
	return []metric{
		{"store.open_s", "s", open.Seconds(), 1},
		{"store.get_s", "s", get.Seconds(), len(cells)},
		{"store.put_s", "s", put.Seconds(), len(cells)},
		{"store.close_s", "s", closing.Seconds(), 1},
		{"store.gets", "count", float64(len(cells)), 1},
		{"store.hit_ratio", "1", ratio(hits, len(cells)), len(cells)},
	}
}

// replaySweepd sends the cells, one per request as a fleet worker with
// one slot receives them, to a fresh sweepd over the replay store.
func (h *harness) replaySweepd(ctx context.Context, tr *tracer, cells []simulated) []metric {
	root := tr.begin("replay.sweepd", "", 0)
	tr.root.Store(root)
	st, err := store.Open(h.replayDir(), cloversim.PhysicsVersion)
	if err != nil {
		tr.end(root)
		h.fail("sweepd replay: %v", err)
		return nil
	}
	srv := startServer(&h.probes, st)
	client := srv.http.Client()
	for _, c := range cells {
		if err := expandOne(ctx, client, srv.http.URL, c); err != nil {
			h.fail("sweepd replay: %s: %v", c.sc.Label(), err)
			break
		}
	}
	tr.open.Wait()
	if err := srv.close(); err != nil {
		h.fail("sweepd replay: %v", err)
	}
	tr.end(root)

	spans, _ := tr.snapshot()
	expands := map[int64]bool{}
	var expand, get time.Duration
	for _, s := range spans {
		if s.Parent == root && s.Name == "sweepd.expand" {
			expands[s.ID] = true
			expand += s.dur()
		}
	}
	for _, s := range spans {
		if expands[s.Parent] && s.Name == "sweepd.store.get" {
			get += s.dur()
		}
	}
	return []metric{
		{"sweepd.expand_s", "s", expand.Seconds(), len(expands)},
		{"sweepd.store_get_s", "s", get.Seconds(), len(expands)},
	}
}

// expandOne posts one explicit-form expand with an NDJSON response and
// checks that its summary frame reports the cell done.
func expandOne(ctx context.Context, client *http.Client, url string, c simulated) error {
	body, err := json.Marshal(map[string][]string{"scenarios": {c.sc.Key()}})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/expand", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	var summary struct{ OK, Failed int }
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var frame struct {
			Summary *struct{ OK, Failed int } `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return err
		}
		if frame.Summary != nil {
			summary = *frame.Summary
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if summary.OK != 1 || summary.Failed != 0 {
		return fmt.Errorf("summary reports %d ok, %d failed", summary.OK, summary.Failed)
	}
	return nil
}

// replayCloverLeaf reruns the traffic study and the store and copy
// microbenchmarks of every baseline CloverLeaf cell, with options built
// from workload.Resolve the way the cloverleaf workload builds them,
// and checks that each reproduces the campaign's metric bits.
func (h *harness) replayCloverLeaf(tr *tracer, cells []simulated) []metric {
	root := tr.begin("replay.cloverleaf", "", 0)
	defer tr.end(root)
	var traffic, storeT, copyT time.Duration
	var counts memsim.Counts
	groups := 0
	for _, c := range cells {
		if c.sc.Workload != "cloverleaf" || c.sc.Mode.Name != "baseline" {
			continue
		}
		_, cfg, err := workload.Resolve(c.sc)
		if err != nil {
			h.fail("cloverleaf replay: %v", err)
			return nil
		}
		maxRows := cfg.MaxRows
		switch {
		case maxRows == 0:
			maxRows = 32
		case maxRows < 0:
			maxRows = 0
		}
		opts := cloverleaf.TrafficOptions{
			Machine: cfg.Machine, Ranks: cfg.Ranks, GridX: cfg.MeshX, GridY: cfg.MeshY,
			MaxRows: maxRows, AlignArrays: true,
			NTStores: cfg.Mode.NTStores, OptimizeLoops: cfg.Mode.OptimizeLoops,
			SpecI2MOff: cfg.Mode.SpecI2MOff, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed,
		}
		var bytesPerCell float64
		traffic += tr.timed("cloverleaf.ModelNode", root, func() {
			m, e := cloverleaf.ModelNode(opts)
			if err = e; e != nil {
				return
			}
			bytesPerCell = m.Traffic.BytesPerStep() / m.Traffic.InnerCells
			groups += m.Traffic.RankShapes
			for _, name := range m.Traffic.LoopNames() {
				counts = counts.Add(m.Traffic.Loops[name].Counts)
			}
		})
		bspec := cfg.EffectiveSpec()
		var storeRatio, copyRead float64
		var serr, cerr error
		storeT += tr.timed("bench.RunStore", root, func() {
			r, e := bench.RunStore(bench.StoreOptions{
				Machine: bspec, Streams: 1, NT: cfg.Mode.NTStores, Cores: cfg.Threads,
				BytesPerStream: 2 << 20, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed,
			})
			storeRatio, serr = r.Ratio(), e
		})
		copyT += tr.timed("bench.RunCopy", root, func() {
			r, e := bench.RunCopy(bench.CopyOptions{
				Machine: bspec, Cores: cfg.Threads, Elems: 1 << 18,
				NT: cfg.Mode.NTStores, PFOff: cfg.Mode.PFOff, Seed: cfg.Seed,
			})
			copyRead, cerr = r.ReadPerIt(), e
		})
		for _, e := range []error{err, serr, cerr} {
			if e != nil {
				h.fail("cloverleaf replay %s: %v", c.sc.Label(), e)
				return nil
			}
		}
		for name, v := range map[string]float64{"bytes_per_cell": bytesPerCell, "store_ratio": storeRatio, "copy_read_bpi": copyRead} {
			if want, _ := c.m.Get(name); math.Float64bits(v) != math.Float64bits(want) {
				h.fail("cloverleaf replay %s: %s %v, the campaign computed %v", c.sc.Label(), name, v, want)
			}
		}
	}
	accesses := counts.Loads + counts.RFOs
	nsPerAccess := 0.0
	if accesses > 0 {
		nsPerAccess = float64(traffic.Nanoseconds()) / float64(accesses)
	}
	return []metric{
		{"cloverleaf.traffic_s", "s", traffic.Seconds(), 1},
		{"cloverleaf.ns_per_access", "ns", nsPerAccess, 1},
		{"cloverleaf.rank_groups", "count", float64(groups), 1},
		{"memsim.accesses", "count", float64(accesses), 1},
		{"memsim.mem_lines", "count", float64(counts.MemReadLines + counts.MemWriteLines), 1},
		{"memsim.itom_lines", "count", float64(counts.ItoMLines), 1},
		{"memsim.l1_hit_ratio", "1", ratio(int(counts.L1Hits), int(accesses)), 1},
		{"bench.store_s", "s", storeT.Seconds(), 1},
		{"bench.copy_s", "s", copyT.Seconds(), 1},
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
