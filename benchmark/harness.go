package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweepcli"
)

// setupRounds is how often a run repeats the repeatable part of its
// set-up; setup_s reports the median.
const setupRounds = 5

// minReps is the fewest timed campaigns a run makes, however long they
// take, so every median has at least three samples.
const minReps = 3

// outputs are the files every campaign writes and the gate compares.
var outputs = []string{"campaign.csv", "campaign.json"}

// config is one run's settings.
type config struct {
	seed      uint64
	seconds   float64 // measure at least this long, and at least minReps campaigns
	trace     bool
	traceDir  string
	updateRef bool
	t0        time.Time // process start
}

// metric is one reported number with its sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// outcome is everything one run reports.
type outcome struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	E2E       []metric             `json:"end_to_end"`
	Timing    []metric             `json:"timing"` // campaign wall and CPU time: printed, not bounded
	Layers    []metric             `json:"per_layer,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	SHA256    map[string]string    `json:"sha256"`
	Errors    []string             `json:"errors,omitempty"`
}

// harness runs one workload's campaigns in this process.
type harness struct {
	spec    spec
	cfg     config
	workers int
	dir     string // scratch root, removed at the end of the run
	out     string // -out of every measured campaign
	probes  probes
	phase   string // the Detail of traced campaign spans

	want  map[string][]byte // the bytes every measured campaign must write
	cells []cell            // want's campaign.json, decoded
	errs  []string
	res   outcome
}

func (h *harness) fail(format string, args ...any) {
	h.errs = append(h.errs, fmt.Sprintf(format, args...))
}

// campaign runs one cmd/sweep invocation in-process, inside a
// sweepcli.campaign span when tracing, and checks it: exit code 0 and,
// when compare is set, the same bytes in h.out as every other measured
// campaign of the run.
func (h *harness) campaign(ctx context.Context, argv []string, compare bool) (wall, cpu time.Duration, ok bool) {
	var stderr bytes.Buffer
	tr := h.probes.tr.Load()
	root := traceRoot(tr, h.phase)
	c0, w0 := cpuTime(), time.Now()
	code := sweepcli.MainWithRunnerContext(ctx, argv, io.Discard, &stderr, h.probes.runner())
	wall, cpu = time.Since(w0), cpuTime()-c0
	endRoot(tr, root)
	if code != 0 {
		h.fail("campaign exited %d: %s", code, strings.TrimSpace(stderr.String()))
		return wall, cpu, false
	}
	if !compare {
		return wall, cpu, true
	}
	got := map[string][]byte{}
	for _, name := range outputs {
		b, err := os.ReadFile(filepath.Join(h.out, name))
		if err != nil {
			h.fail("reading campaign output: %v", err)
			return wall, cpu, false
		}
		got[name] = b
	}
	if h.want == nil {
		h.want = got
		if err := json.Unmarshal(got["campaign.json"], &struct {
			Results *[]cell `json:"results"`
		}{&h.cells}); err != nil {
			h.fail("decoding campaign.json: %v", err)
			return wall, cpu, false
		}
		return wall, cpu, true
	}
	for _, name := range outputs {
		if !bytes.Equal(got[name], h.want[name]) {
			h.fail("%s differs from the first campaign's bytes", name)
			return wall, cpu, false
		}
	}
	return wall, cpu, true
}

// rep is one measured campaign; a cold store is removed after it so the
// next one starts fresh.
func (h *harness) rep(ctx context.Context, argv []string) (wall, cpu time.Duration) {
	wall, cpu, ok := h.campaign(ctx, argv, true)
	h.res.Attempted++
	if !ok {
		h.res.Failed++
	}
	if h.spec.store && h.spec.cold() {
		if err := os.RemoveAll(h.storeDir()); err != nil {
			h.fail("removing the campaign store: %v", err)
		}
	}
	return wall, cpu
}

func (h *harness) storeDir() string { return filepath.Join(h.dir, "store") }

// run measures one workload and applies the correctness gates.
func run(ctx context.Context, s spec, cfg config) outcome {
	h := &harness{spec: s, cfg: cfg, workers: min(runtime.NumCPU(), 4)}
	h.res = outcome{Workload: s.name, Samples: map[string][]float64{}, SHA256: map[string]string{}}
	runtime.GOMAXPROCS(h.workers)
	h.measure(ctx)
	h.finish()
	return h.res
}

// measure runs set-up, the timed campaigns, and with tracing the traced
// pass and the layer replays.
func (h *harness) measure(ctx context.Context) {
	s, cfg := h.spec, h.cfg
	var err error
	if h.dir, err = os.MkdirTemp("", "cloverbench-"+s.name+"-"); err != nil {
		h.fail("scratch directory: %v", err)
		return
	}
	defer os.RemoveAll(h.dir)
	h.out = filepath.Join(h.dir, "out")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// One-off set-up: the warm workloads' store, populated by one cold
	// campaign whose bytes every warm campaign must reproduce. It is
	// the traced pass's simulating campaign on these workloads.
	populated := filepath.Join(h.dir, "populated")
	if s.warm {
		h.probes.tr.Store(tr)
		h.phase = "populate"
		_, _, ok := h.campaign(ctx, s.argv(cfg.seed, strconv.Itoa(h.workers), h.out, populated), true)
		h.probes.tr.Store(nil)
		h.phase = ""
		if !ok {
			return
		}
	}
	once := time.Since(cfg.t0)

	// Repeatable set-up: fresh directories, servers, and the discarded
	// warm-up campaign.
	var argv []string
	var fleet []*server
	defer func() { h.closeServers(fleet) }()
	var preps []float64
	for range setupRounds {
		p0 := time.Now()
		h.closeServers(fleet)
		if argv, fleet, err = h.prepare(ctx, populated); err != nil {
			h.fail("set-up: %v", err)
			return
		}
		preps = append(preps, time.Since(p0).Seconds())
	}
	setup := once.Seconds() + median(preps)

	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		fmt.Fprintln(os.Stderr, "cloverbench: /proc/self/clear_refs unavailable; peak_rss_mb is the lifetime peak")
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < cfg.seconds; n++ {
		if ctx.Err() != nil {
			h.fail("interrupted: %v", ctx.Err())
			return
		}
		// Each campaign's own peak: one peak over a whole warm-replay
		// run jumped between about 15 and 22 MB from run to run.
		resetPeakRSS()
		wall, cpu := h.rep(ctx, argv)
		walls, cpus, rss = append(walls, wall.Seconds()), append(cpus, cpu.Seconds()), append(rss, peakRSSMB())
	}
	h.res.Samples["campaign_s"], h.res.Samples["cpu_s"], h.res.Samples["peak_rss_mb"] = walls, cpus, rss
	h.res.E2E = []metric{
		{"peak_rss_mb", "MB", median(rss), len(rss)},
		{"setup_s", "s", setup, len(preps)},
	}
	// Their spread between runs on a shared host exceeds 15%, so
	// BENCHMARK.json bounds neither; compare them in alternating pairs.
	h.res.Timing = []metric{
		{"campaign_s", "s", median(walls), len(walls)},
		{"cpu_s", "s", median(cpus), len(cpus)},
	}

	if tr != nil {
		h.tracedPass(ctx, tr, argv)
	}
}

// prepare builds the state the measured campaigns run against and runs
// the warm-up campaign. It returns their command line and the servers
// it started.
func (h *harness) prepare(ctx context.Context, populated string) ([]string, []*server, error) {
	s, seed, workers := h.spec, h.cfg.seed, strconv.Itoa(h.workers)
	if err := os.RemoveAll(h.storeDir()); err != nil {
		return nil, nil, err
	}
	switch {
	case s.cold():
		// The warm-up runs without a store: its fsync would only add
		// disk latency to setup_s.
		warmup := s.argv(seed, workers, filepath.Join(h.dir, "warmup"), "", s.warmup...)
		if _, _, ok := h.campaign(ctx, warmup, false); !ok {
			return nil, nil, errors.New("warm-up campaign failed")
		}
		storeDir := ""
		if s.store {
			storeDir = h.storeDir()
		}
		return s.argv(seed, workers, h.out, storeDir), nil, nil
	case s.fleet:
		var fleet []*server
		var urls []string
		for i := range 2 {
			dir := filepath.Join(h.dir, fmt.Sprintf("sweepd%d", i))
			if err := copyDir(populated, dir); err != nil {
				h.closeServers(fleet)
				return nil, nil, err
			}
			st, err := store.Open(dir, cloversim.PhysicsVersion)
			if err != nil {
				h.closeServers(fleet)
				return nil, nil, err
			}
			srv := startServer(&h.probes, st)
			fleet = append(fleet, srv)
			urls = append(urls, srv.http.URL)
		}
		argv := s.argv(seed, strings.Join(urls, ","), h.out, "")
		if _, _, ok := h.campaign(ctx, argv, true); !ok {
			return nil, fleet, errors.New("warm-up campaign failed")
		}
		return argv, fleet, nil
	default:
		if err := copyDir(populated, h.storeDir()); err != nil {
			return nil, nil, err
		}
		argv := s.argv(seed, workers, h.out, h.storeDir())
		if _, _, ok := h.campaign(ctx, argv, true); !ok {
			return nil, nil, errors.New("warm-up campaign failed")
		}
		return argv, nil, nil
	}
}

func (h *harness) closeServers(fleet []*server) {
	for _, s := range fleet {
		if err := s.close(); err != nil {
			h.fail("closing sweepd: %v", err)
		}
	}
}

// copyDir copies the regular files of a store directory into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func traceRoot(tr *tracer, detail string) int64 {
	if tr == nil {
		return 0
	}
	id := tr.begin("sweepcli.campaign", detail, 0)
	tr.root.Store(id)
	return id
}

// endRoot closes a campaign span once the server-side spans it caused
// have closed.
func endRoot(tr *tracer, id int64) {
	if tr != nil {
		tr.open.Wait()
		tr.end(id)
	}
}

// tracedPass repeats the campaign with spans on, replays the layers,
// and turns the spans into the per-layer metrics. Each traced campaign
// follows an untraced one, so the tracing overhead compares campaigns
// run moments apart rather than minutes apart on a drifting machine.
func (h *harness) tracedPass(ctx context.Context, tr *tracer, argv []string) {
	var untraced []float64
	for range h.spec.tracedReps {
		wall, _ := h.rep(ctx, argv)
		untraced = append(untraced, wall.Seconds())
		h.probes.tr.Store(tr)
		h.rep(ctx, argv)
		h.probes.tr.Store(nil)
	}
	h.probes.tr.Store(tr)
	defer h.probes.tr.Store(nil)
	rp := h.replay(ctx, tr)
	spans, _ := tr.snapshot()
	layers := campaignLayers(spans, len(h.cells), h.workers)
	traced := layers[0] // sweepcli.campaign_s
	h.res.Layers = append(append(layers, rp...), metric{"trace.overhead_pct", "%", 100 * (traced.Value/median(untraced) - 1), traced.N})
	if err := os.MkdirAll(h.cfg.traceDir, 0o755); err != nil {
		h.fail("trace directory: %v", err)
		return
	}
	path := filepath.Join(h.cfg.traceDir, h.spec.name+".trace.json")
	if err := writeChrome(path, spans); err != nil {
		h.fail("writing %s: %v", path, err)
	}
}

// finish applies the gates that need the whole run, the paper anchors
// and at seed 0 the reference hashes, and settles the verdict.
func (h *harness) finish() {
	if h.want != nil {
		h.checkOutputs()
	}
	h.res.Errors = h.errs
	h.res.Correct = len(h.errs) == 0 && h.res.Failed == 0 && h.res.Attempted > 0
}

func (h *harness) checkOutputs() {
	for _, name := range outputs {
		sum := sha256.Sum256(h.want[name])
		h.res.SHA256[name] = hex.EncodeToString(sum[:])
	}
	for _, a := range h.spec.anchors {
		if err := a(h.cells); err != nil {
			h.fail("%v", err)
		}
	}
	if h.cfg.seed != 0 {
		return
	}
	if h.cfg.updateRef {
		if err := updateReference(h.spec.ref, h.res.SHA256); err != nil {
			h.fail("updating the reference: %v", err)
		}
		return
	}
	if err := checkReference(h.spec.ref, h.res.SHA256); err != nil {
		h.fail("%v", err)
	}
}

// referencePath is reference.json in the benchmark's source directory,
// from the repository root or from that directory itself.
func referencePath() string {
	p := filepath.Join("benchmark", "reference.json")
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return "reference.json"
}

// reference maps physics version, then grid, then output file to its
// SHA-256 at seed 0.
type reference map[string]map[string]map[string]string

func readReference() (reference, error) {
	ref := reference{}
	b, err := os.ReadFile(referencePath())
	if errors.Is(err, os.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	return ref, json.Unmarshal(b, &ref)
}

func checkReference(grid string, got map[string]string) error {
	ref, err := readReference()
	if err != nil {
		return err
	}
	want, ok := ref[cloversim.PhysicsVersion][grid]
	if !ok {
		return fmt.Errorf("reference.json has no hashes for physics %s, grid %s: run with -update-reference after checking the physics change",
			cloversim.PhysicsVersion, grid)
	}
	for _, name := range outputs {
		if got[name] != want[name] {
			return fmt.Errorf("%s sha256 %s, reference %s (physics %s, grid %s)", name, got[name], want[name], cloversim.PhysicsVersion, grid)
		}
	}
	return nil
}

func updateReference(grid string, got map[string]string) error {
	ref, err := readReference()
	if err != nil {
		return err
	}
	if ref[cloversim.PhysicsVersion] == nil {
		ref[cloversim.PhysicsVersion] = map[string]map[string]string{}
	}
	ref[cloversim.PhysicsVersion][grid] = got
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(), append(b, '\n'), 0o644)
}
