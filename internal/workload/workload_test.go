package workload

import (
	"math"
	"reflect"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/sweep"
)

// TestRegistryCoversAllWorkloads checks the workload table: the four
// workloads, sorted by name and unique, each row with a name, a run
// function, an analytic function and a positive default mesh.
func TestRegistryCoversAllWorkloads(t *testing.T) {
	want := []string{"cloverleaf", "jacobi", "riemann", "stream"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v (sorted)", got, want)
	}
	for i, w := range workloads {
		if w.name == "" || w.run == nil || w.analytic == nil {
			t.Errorf("row %d (%q) lacks a name, a run function or an analytic function", i, w.name)
		}
		if m := w.defaultMesh; m.X <= 0 || m.Y <= 0 {
			t.Errorf("workload %q default mesh %v not positive", w.name, m)
		}
		if i > 0 && workloads[i-1].name >= w.name {
			t.Errorf("row %d: %q after %q, want names sorted and unique", i, w.name, workloads[i-1].name)
		}
		if got, ok := ByName(w.name); !ok || got.name != w.name {
			t.Errorf("workload %q does not round-trip through ByName", w.name)
		}
	}
}

func TestResolveDefaults(t *testing.T) {
	w, cfg, err := Resolve(sweep.Scenario{Machine: "icx"})
	if err != nil {
		t.Fatal(err)
	}
	if w.name != DefaultName {
		t.Errorf("empty workload resolved to %q, want %q", w.name, DefaultName)
	}
	spec, _ := machine.ByName("icx")
	if cfg.Ranks != spec.Cores() || cfg.Threads != spec.Cores() {
		t.Errorf("zero ranks/threads should resolve to full node, got %d/%d", cfg.Ranks, cfg.Threads)
	}
	if cfg.MeshX != 15360 || cfg.MeshY != 15360 {
		t.Errorf("zero mesh should resolve to workload default, got %dx%d", cfg.MeshX, cfg.MeshY)
	}
	if cfg.Seed == 0 {
		t.Error("zero seed should resolve to a fixed default")
	}

	if _, _, err := Resolve(sweep.Scenario{Machine: "icx", Workload: "bogus"}); err == nil {
		t.Error("unknown workload must fail")
	}
	if _, _, err := Resolve(sweep.Scenario{Machine: "bogus", Workload: "stream"}); err == nil {
		t.Error("unknown machine must fail")
	}
	if _, _, err := Resolve(sweep.Scenario{Machine: "icx", Workload: "stream", Ranks: 200}); err == nil {
		t.Error("rank count beyond the node must fail for every workload")
	}
	if _, _, err := Resolve(sweep.Scenario{Machine: "icx", Workload: "jacobi", Threads: 200}); err == nil {
		t.Error("thread count beyond the node must fail for every workload")
	}
}

// kernelScenario is a fast scenario for the kernel workloads.
func kernelScenario(mach, wl, mode string) sweep.Scenario {
	m, _ := sweep.ModeByName(mode)
	return sweep.Scenario{
		Machine: mach, Workload: wl, Mode: m,
		Threads: 8, Ranks: 8, Mesh: sweep.Mesh{X: 2048, Y: 16}, Seed: 0x5eed,
	}
}

func metric(t *testing.T, m sweep.Metrics, name string) float64 {
	t.Helper()
	v, ok := m.Get(name)
	if !ok {
		t.Fatalf("metric %s missing (have %v)", name, m)
	}
	return v
}

// TestStreamPhysics: on the no-evasion CLX the copy kernel pays the
// full write-allocate (ratio 1.5 = 24/16 byte/it); NT stores drop it
// to ~1.0; ICX under full-socket pressure evades most of it.
func TestStreamPhysics(t *testing.T) {
	base, err := Run(kernelScenario("clx", "stream", "baseline"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := metric(t, base, "stream_copy_ratio"); r < 1.45 {
		t.Errorf("CLX copy ratio %.3f, want ~1.5 (full write-allocate)", r)
	}
	if r := metric(t, base, "stream_triad_ratio"); r < 1.3 {
		t.Errorf("CLX triad ratio %.3f, want ~1.33", r)
	}

	nt, err := Run(kernelScenario("clx", "stream", "nt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := metric(t, nt, "stream_copy_ratio"); r > 1.1 {
		t.Errorf("CLX NT copy ratio %.3f, want ~1.0", r)
	}

	icx := kernelScenario("icx", "stream", "baseline")
	icx.Threads = 36
	evaded, err := Run(icx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := metric(t, evaded, "stream_copy_ratio"); r > 1.25 {
		t.Errorf("ICX full-socket copy ratio %.3f, want substantial evasion", r)
	}
	if v := metric(t, evaded, "stream_copy_itom_bpi"); v <= 0 {
		t.Errorf("ICX evasion must claim ItoM lines, got %.3f byte/it", v)
	}
}

// TestJacobiPhysics: the stencil reads ~8 byte/it with fulfilled layer
// conditions; the write allocate adds 8 on CLX and is evaded on ICX.
func TestJacobiPhysics(t *testing.T) {
	base, err := Run(kernelScenario("clx", "jacobi", "baseline"), nil)
	if err != nil {
		t.Fatal(err)
	}
	read := metric(t, base, "jacobi_read_bpi")
	if read < 14 || read > 20 {
		t.Errorf("CLX jacobi read %.2f byte/it, want ~16 (stream + write-allocate)", read)
	}
	icx := kernelScenario("icx", "jacobi", "baseline")
	icx.Threads = 36
	evaded, err := Run(icx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re := metric(t, evaded, "jacobi_read_bpi"); re >= read-2 {
		t.Errorf("ICX jacobi read %.2f byte/it, want write-allocate evasion vs CLX %.2f", re, read)
	}
}

// TestRiemannPhysics: the Sod star state matches Toro's reference, and
// the 3-stream write-out pays full write-allocates on CLX.
func TestRiemannPhysics(t *testing.T) {
	m, err := Run(kernelScenario("clx", "riemann", "baseline"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := metric(t, m, "riemann_pstar"); math.Abs(p-0.30313) > 1e-3 {
		t.Errorf("pstar %.5f, want 0.30313", p)
	}
	if u := metric(t, m, "riemann_ustar"); math.Abs(u-0.92745) > 1e-3 {
		t.Errorf("ustar %.5f, want 0.92745", u)
	}
	if r := metric(t, m, "riemann_store_ratio"); r < 1.9 {
		t.Errorf("CLX 3-stream store ratio %.3f, want ~2.0", r)
	}
}

// TestWorkloadsDeterministic: every workload must produce bit-identical
// metrics for identical configs (campaign output is byte-compared).
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names() {
		s := kernelScenario("icx", name, "nt")
		a, err := Run(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated runs differ:\n%v\nvs\n%v", name, a, b)
		}
	}
}

// TestAnalyticHooks: every workload must answer its analytic hook with
// finite values.
func TestAnalyticHooks(t *testing.T) {
	for _, name := range Names() {
		w, _ := ByName(name)
		_, cfg, err := Resolve(sweep.Scenario{Machine: "icx", Workload: name})
		if err != nil {
			t.Fatal(err)
		}
		m, ok := w.analytic(cfg)
		if !ok {
			t.Errorf("%s: no analytic model", name)
			continue
		}
		if len(m) == 0 {
			t.Errorf("%s: empty analytic metrics", name)
		}
		for _, x := range m {
			if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
				t.Errorf("%s: analytic metric %s = %v", name, x.Name, x.Value)
			}
		}
	}
}

// TestJacobiAnalyticLC: the default jacobi mesh satisfies a layer
// condition in cache on ICX, and the analytic bounds bracket the
// simulated traffic.
func TestJacobiAnalyticLC(t *testing.T) {
	w, _ := ByName("jacobi")
	_, cfg, err := Resolve(sweep.Scenario{Machine: "icx", Workload: "jacobi"})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := w.analytic(cfg)
	if lvl := metric(t, m, "jacobi_lc_level"); lvl < 1 || lvl > 3 {
		t.Errorf("default mesh LC level %v, want cache-resident (1..3)", lvl)
	}
}
