package likwid

import (
	"math"
	"strings"
	"testing"

	"cloversim/internal/memsim"
)

func TestGroupsExist(t *testing.T) {
	for _, name := range []string{"MEM", "MEM_DP", "SPECI2M"} {
		g, ok := GroupByName(name)
		if !ok {
			t.Fatalf("group %s missing", name)
		}
		if len(g.Events) == 0 || len(g.Metrics) == 0 {
			t.Errorf("group %s empty", name)
		}
	}
	if _, ok := GroupByName("mem_dp"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := GroupByName("L2CACHE"); ok {
		t.Error("unknown group resolved")
	}
}

func TestMeasureMEM(t *testing.T) {
	c := memsim.Counts{MemReadLines: 1000, MemWriteLines: 500}
	m := Measure(MEM(), "r0", c, 0, 2.0)
	if got := m.Metrics["Memory read data volume [GBytes]"]; math.Abs(got-64000e-9) > 1e-15 {
		t.Errorf("read volume = %g", got)
	}
	if got := m.Metrics["Memory bandwidth [MBytes/s]"]; math.Abs(got-1500*64*1e-6/2) > 1e-12 {
		t.Errorf("bandwidth = %g", got)
	}
}

func TestMeasureSPECI2M(t *testing.T) {
	// Listing 4's headline metric: ItoM volume at the CHAs.
	c := memsim.Counts{MemReadLines: 10, MemWriteLines: 1000, ItoMLines: 900}
	m := Measure(SPECI2M(), "copy", c, 0, 1)
	if got := m.Metrics["SpecI2M data volume [GBytes]"]; math.Abs(got-900*64e-9) > 1e-15 {
		t.Errorf("ItoM volume = %g", got)
	}
	if got := m.Metrics["SpecI2M evasion ratio"]; math.Abs(got-0.9) > 1e-12 {
		t.Errorf("evasion ratio = %g", got)
	}
}

func TestMeasureMEMDP(t *testing.T) {
	c := memsim.Counts{MemReadLines: 100, MemWriteLines: 100}
	m := Measure(MEMDP(), "k", c, 12800, 1)
	if got := m.Metrics["DP [MFLOP/s]"]; math.Abs(got-0.0128) > 1e-12 {
		t.Errorf("MFLOP/s = %g", got)
	}
	if got := m.Metrics["Operational intensity [FLOP/byte]"]; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("intensity = %g", got)
	}
}

func TestZeroTimeGuards(t *testing.T) {
	m := Measure(MEMDP(), "z", memsim.Counts{}, 0, 0)
	for name, v := range m.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %g at zero time", name, v)
		}
	}
}

func TestFormat(t *testing.T) {
	m := Measure(SPECI2M(), "am04", memsim.Counts{MemReadLines: 42}, 0, 1)
	out := m.Format()
	for _, want := range []string{"Region am04", "CAS_COUNT_RD", "SpecI2M data volume", "| Metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestEventsFromCounts(t *testing.T) {
	c := memsim.Counts{
		MemReadLines: 1, MemWriteLines: 2, ItoMLines: 3, NTLines: 4,
		PFLines: 5, L1Hits: 6, L2Hits: 7, L3Hits: 8, Loads: 9, RFOs: 10,
	}
	ev := EventsFromCounts(c, 11)
	checks := map[string]float64{
		EventCASCountRD: 1, EventCASCountWR: 2, EventTORInsertsIToM: 3, EventFlopsDP: 11,
	}
	for name, want := range checks {
		if ev[name] != want {
			t.Errorf("%s = %g, want %g", name, ev[name], want)
		}
	}
	// Every event is one some group reads.
	read := map[string]bool{}
	for _, g := range Groups() {
		for _, name := range g.Events {
			read[name] = true
		}
	}
	for name := range ev {
		if !read[name] {
			t.Errorf("event %s is in no group", name)
		}
	}
	if len(ev) != len(checks) {
		t.Errorf("%d events, want %d", len(ev), len(checks))
	}
}
