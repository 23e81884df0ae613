package counters

import (
	"testing"

	"cloversim/internal/memsim"
)

// fakeSource is a controllable counter source.
type fakeSource struct{ c memsim.Counts }

func (f *fakeSource) Counts() memsim.Counts { return f.c }

func TestMarkerRegionDelta(t *testing.T) {
	src := &fakeSource{}
	m := NewMarker(src)

	m.Start("am04")
	src.c.MemReadLines += 10
	src.c.MemWriteLines += 4
	if err := m.Stop("am04"); err != nil {
		t.Fatal(err)
	}
	m.AddWork("am04", 400, 100)

	r := m.Region("am04")
	if r.Calls != 1 || r.C.MemReadLines != 10 || r.C.MemWriteLines != 4 {
		t.Fatalf("region: %+v", r)
	}
	if r.ReadBytes() != 640 || r.WriteBytes() != 256 {
		t.Fatal("byte volumes wrong")
	}
	if got := r.BytesPerIter(); got != float64(14*64)/100 {
		t.Fatalf("BytesPerIter = %g", got)
	}
	if r.ReadPerIter() != 6.4 || r.WritePerIter() != 2.56 {
		t.Fatal("per-iter volumes wrong")
	}
}

func TestMarkerAccumulatesCalls(t *testing.T) {
	src := &fakeSource{}
	m := NewMarker(src)
	for i := 0; i < 3; i++ {
		m.Start("r")
		src.c.MemReadLines += 5
		if err := m.Stop("r"); err != nil {
			t.Fatal(err)
		}
	}
	r := m.Region("r")
	if r.Calls != 3 || r.C.MemReadLines != 15 {
		t.Fatalf("accumulation: %+v", r)
	}
}

func TestStopWithoutStart(t *testing.T) {
	m := NewMarker(&fakeSource{})
	if err := m.Stop("never"); err == nil {
		t.Fatal("Stop without Start must error (the LIKWID failure mode)")
	}
}

func TestRegionsSorted(t *testing.T) {
	src := &fakeSource{}
	m := NewMarker(src)
	for _, n := range []string{"pdv00", "am04", "ac01"} {
		m.Start(n)
		m.Stop(n)
	}
	rs := m.Regions()
	if len(rs) != 3 || rs[0].Name != "ac01" || rs[2].Name != "pdv00" {
		t.Fatalf("regions unsorted: %v", []string{rs[0].Name, rs[1].Name, rs[2].Name})
	}
}

func TestGather(t *testing.T) {
	s1, s2 := &fakeSource{}, &fakeSource{}
	m1, m2 := NewMarker(s1), NewMarker(s2)

	m1.Start("k")
	s1.c.ItoMLines += 3
	m1.Stop("k")
	m1.AddWork("k", 10, 5)

	m2.Start("k")
	s2.c.ItoMLines += 4
	m2.Stop("k")
	m2.AddWork("k", 20, 5)

	agg := Gather(m1, nil, m2)
	k := agg["k"]
	if k.Calls != 2 || k.C.ItoMLines != 7 || k.Flops != 30 || k.Iters != 10 {
		t.Fatalf("gather: %+v", k)
	}
	if k.ItoMBytes() != 7*64 {
		t.Fatal("ItoM volume wrong")
	}
}

func TestZeroIterGuards(t *testing.T) {
	r := &Region{}
	if r.BytesPerIter() != 0 || r.ReadPerIter() != 0 || r.WritePerIter() != 0 {
		t.Fatal("zero-iteration region should report 0, not NaN")
	}
}
