package trace

import (
	"math"
	"testing"

	"cloversim/internal/counters"
	"cloversim/internal/machine"
)

func TestRunMarked(t *testing.T) {
	ar := NewArena(true)
	src := ar.Alloc("src", 0, 1023, 0, 31)
	dst := ar.Alloc("dst", 0, 1023, 0, 31)
	loop := &Loop{
		Name:       "copyk",
		Reads:      []Access{{A: src, DJ: 0, DK: 0}},
		Writes:     []Write{{A: dst}},
		FlopsPerIt: 1,
	}
	x := mkExec()
	m := counters.NewMarker(x, counters.GroupSPECI2M)

	b := Bounds{JLo: 0, JHi: 1023, KLo: 0, KHi: 31}
	for i := 0; i < 3; i++ {
		if _, err := x.RunMarked(m, loop, b); err != nil {
			t.Fatal(err)
		}
	}
	r := m.Region("copyk")
	if r == nil || r.Calls != 3 {
		t.Fatalf("region calls: %+v", r)
	}
	if r.Iters != 3*b.Iterations() {
		t.Fatalf("iters %d", r.Iters)
	}
	if r.Flops != 3*b.Iterations() {
		t.Fatalf("flops %d", r.Flops)
	}
	// Serial copy with WA: 16 read + 8 write per element.
	if bpi := r.BytesPerIter(); math.Abs(bpi-24) > 1 {
		t.Fatalf("marked copy balance %.2f, want ~24", bpi)
	}
}

func TestRunMarkedMachineSpread(t *testing.T) {
	// Markers from several simulated cores gather like likwid-mpirun.
	spec := machine.ICX8360Y()
	var ms []*counters.Marker
	for core := 0; core < 3; core++ {
		ar := NewArena(true)
		a := ar.Alloc("a", 0, 255, 0, 15)
		loop := &Loop{Name: "w", Writes: []Write{{A: a}}}
		x := NewExecutor(spec, nil)
		x.Env = Env{Pressure: 0, PFOn: true}
		m := counters.NewMarker(x, counters.GroupMEM)
		if _, err := x.RunMarked(m, loop, Bounds{JLo: 0, JHi: 255, KLo: 0, KHi: 15}); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	agg := counters.Gather(ms...)
	if agg["w"].Calls != 3 {
		t.Fatalf("gathered calls %d", agg["w"].Calls)
	}
}
