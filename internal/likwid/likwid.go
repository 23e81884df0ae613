// Package likwid emulates the measurement surface of likwid-perfctr as
// the paper uses it: performance groups (MEM, MEM_DP, and the custom
// SPECI2M group of Listing 4), the events they read (CAS_COUNT_RD/WR at
// the MBOXes, TOR_INSERTS_IA_ITOM at the CBOXes, DP flops), derived
// metrics, and likwid-perfctr-style formatted output. It has no
// likwid-features toggles: cmd/perfctr's -d flag switches the modeled
// prefetchers, all four as one.
//
// The "hardware" behind the events is internal/memsim: Measure turns a
// simulated core group's counters into the same tables an operator
// would read off likwid-perfctr.
package likwid

import (
	"fmt"
	"sort"
	"strings"

	"cloversim/internal/memsim"
)

// Event names, following Intel/LIKWID nomenclature for ICX and SPR:
// the events the groups read.
const (
	EventCASCountRD     = "CAS_COUNT_RD"        // memory controller reads
	EventCASCountWR     = "CAS_COUNT_WR"        // memory controller writes
	EventTORInsertsIToM = "TOR_INSERTS_IA_ITOM" // SpecI2M claims (CHA)
	EventFlopsDP        = "FP_ARITH_INST_RETIRED_SCALAR_DOUBLE"
)

// Group is a performance group: a set of events plus derived metrics.
type Group struct {
	Name   string
	Events []string
	// Metrics maps metric name to a function over raw event counts and
	// the measurement time.
	Metrics []Metric
}

// Metric is one derived quantity of a group.
type Metric struct {
	Name string
	Eval func(ev map[string]float64, seconds float64) float64
}

// lineBytes is the cache-line size used for volume conversion.
const lineBytes = 64

func volGB(lines float64) float64 { return lines * lineBytes * 1e-9 }

// MEM returns the MEM group: read/write data volume and bandwidth.
func MEM() *Group {
	return &Group{
		Name:   "MEM",
		Events: []string{EventCASCountRD, EventCASCountWR},
		Metrics: []Metric{
			{"Memory read data volume [GBytes]", func(ev map[string]float64, _ float64) float64 {
				return volGB(ev[EventCASCountRD])
			}},
			{"Memory write data volume [GBytes]", func(ev map[string]float64, _ float64) float64 {
				return volGB(ev[EventCASCountWR])
			}},
			{"Memory data volume [GBytes]", func(ev map[string]float64, _ float64) float64 {
				return volGB(ev[EventCASCountRD] + ev[EventCASCountWR])
			}},
			{"Memory bandwidth [MBytes/s]", func(ev map[string]float64, s float64) float64 {
				if s <= 0 {
					return 0
				}
				return (ev[EventCASCountRD] + ev[EventCASCountWR]) * lineBytes * 1e-6 / s
			}},
		},
	}
}

// MEMDP returns the MEM_DP group: MEM plus double-precision flops.
func MEMDP() *Group {
	g := MEM()
	g.Name = "MEM_DP"
	g.Events = append(g.Events, EventFlopsDP)
	g.Metrics = append(g.Metrics,
		Metric{"DP [MFLOP/s]", func(ev map[string]float64, s float64) float64 {
			if s <= 0 {
				return 0
			}
			return ev[EventFlopsDP] * 1e-6 / s
		}},
		Metric{"Operational intensity [FLOP/byte]", func(ev map[string]float64, _ float64) float64 {
			v := (ev[EventCASCountRD] + ev[EventCASCountWR]) * lineBytes
			if v == 0 {
				return 0
			}
			return ev[EventFlopsDP] / v
		}},
	)
	return g
}

// SPECI2M returns the custom group of the paper's Listing 4: memory
// volumes plus the SpecI2M claim volume counted at the CHAs.
func SPECI2M() *Group {
	g := MEM()
	g.Name = "SPECI2M"
	g.Events = append(g.Events, EventTORInsertsIToM)
	g.Metrics = append(g.Metrics,
		Metric{"SpecI2M data volume [GBytes]", func(ev map[string]float64, _ float64) float64 {
			return volGB(ev[EventTORInsertsIToM])
		}},
		Metric{"SpecI2M evasion ratio", func(ev map[string]float64, _ float64) float64 {
			wr := ev[EventCASCountWR]
			if wr == 0 {
				return 0
			}
			return ev[EventTORInsertsIToM] / wr
		}},
	)
	return g
}

// Groups lists all built-in groups by name.
func Groups() map[string]*Group {
	return map[string]*Group{"MEM": MEM(), "MEM_DP": MEMDP(), "SPECI2M": SPECI2M()}
}

// GroupByName resolves a group name (case-insensitive).
func GroupByName(name string) (*Group, bool) {
	g, ok := Groups()[strings.ToUpper(name)]
	return g, ok
}

// EventsFromCounts converts simulator counters into raw event counts.
// Flops are attributed externally (the simulator replays addresses, not
// arithmetic), hence the explicit parameter.
func EventsFromCounts(c memsim.Counts, flops int64) map[string]float64 {
	return map[string]float64{
		EventCASCountRD:     float64(c.MemReadLines),
		EventCASCountWR:     float64(c.MemWriteLines),
		EventTORInsertsIToM: float64(c.ItoMLines),
		EventFlopsDP:        float64(flops),
	}
}

// Measurement is one region's rendered result.
type Measurement struct {
	Region  string
	Group   string
	Seconds float64
	Events  map[string]float64
	Metrics map[string]float64
}

// Measure evaluates a group over simulator counts.
func Measure(g *Group, region string, c memsim.Counts, flops int64, seconds float64) Measurement {
	ev := EventsFromCounts(c, flops)
	m := Measurement{
		Region:  region,
		Group:   g.Name,
		Seconds: seconds,
		Events:  map[string]float64{},
		Metrics: map[string]float64{},
	}
	for _, name := range g.Events {
		m.Events[name] = ev[name]
	}
	for _, metric := range g.Metrics {
		m.Metrics[metric.Name] = metric.Eval(ev, seconds)
	}
	return m
}

// Format renders the measurement in the likwid-perfctr table style.
func (m Measurement) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Region %s, Group %s\n", m.Region, m.Group)
	fmt.Fprintf(&b, "+%s+\n", strings.Repeat("-", 58))
	fmt.Fprintf(&b, "| %-40s | %13s |\n", "Event", "Count")
	names := make([]string, 0, len(m.Events))
	for n := range m.Events {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "| %-40s | %13.0f |\n", n, m.Events[n])
	}
	fmt.Fprintf(&b, "+%s+\n", strings.Repeat("-", 58))
	fmt.Fprintf(&b, "| %-40s | %13s |\n", "Metric", "Value")
	names = names[:0]
	for n := range m.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "| %-40s | %13.4f |\n", n, m.Metrics[n])
	}
	fmt.Fprintf(&b, "+%s+\n", strings.Repeat("-", 58))
	return b.String()
}
