package cloverleaf

import (
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// modelMemo is the loop memo every modelFor study shares, as the studies
// of one campaign do: the tests ask for the same rank counts again, and
// a loop replays once. It changes no result.
var modelMemo = trace.NewMemo()

func modelFor(t *testing.T, ranks int) *NodeModel {
	t.Helper()
	m, err := ModelNode(TrafficOptions{
		Machine: machine.ICX8360Y(), Ranks: ranks, MaxRows: 24, AlignArrays: true, Memo: modelMemo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelNodeBasics(t *testing.T) {
	m := modelFor(t, 1)
	if m.StepSeconds <= 0 || m.TotalStepSeconds < m.StepSeconds {
		t.Fatalf("times: %+v", m)
	}
	if m.MPIPerStep.Total() != 0 {
		t.Error("serial run charged MPI time")
	}
	// Serial achieved bandwidth is bounded by one core's bandwidth.
	if m.BandwidthBytes > machine.ICX8360Y().Mem.CoreBandwidth*1.01 {
		t.Errorf("serial bandwidth %.1f GB/s exceeds core limit", m.BandwidthBytes/1e9)
	}
}

// TestBandwidthSaturation: achieved node bandwidth saturates within the
// first ccNUMA domain (Fig. 2) at the domain limit.
func TestBandwidthSaturation(t *testing.T) {
	spec := machine.ICX8360Y()
	b9 := modelFor(t, 9).BandwidthBytes
	b18 := modelFor(t, 18).BandwidthBytes
	if b9 < spec.Mem.DomainBandwidth*0.95 {
		t.Errorf("9 cores reach only %.0f GB/s, want near %.0f",
			b9/1e9, spec.Mem.DomainBandwidth/1e9)
	}
	if b18 > spec.Mem.DomainBandwidth*1.05 {
		t.Errorf("18 cores exceed the domain bandwidth: %.0f GB/s", b18/1e9)
	}
}

// TestSpeedupKeepsRisingAfterSaturation: the paper's observation that
// speedup rises beyond bandwidth saturation because WA evasion improves.
func TestSpeedupKeepsRisingAfterSaturation(t *testing.T) {
	t9 := modelFor(t, 9).TotalStepSeconds
	t18 := modelFor(t, 18).TotalStepSeconds
	if t18 >= t9 {
		t.Errorf("18-core step (%.4gs) not faster than 9-core (%.4gs) despite evasion", t18, t9)
	}
}

// TestPrimeSlowdown: prime rank counts are slower than their non-prime
// neighbors, without a bandwidth drop (the Fig. 2 signature).
func TestPrimeSlowdown(t *testing.T) {
	m71 := modelFor(t, 71)
	m72 := modelFor(t, 72)
	if m71.TotalStepSeconds <= m72.TotalStepSeconds {
		t.Errorf("71 ranks (%.4gs) not slower than 72 (%.4gs)",
			m71.TotalStepSeconds, m72.TotalStepSeconds)
	}
	// Bandwidth must NOT drop at the prime count (both saturated).
	if m71.BandwidthBytes < m72.BandwidthBytes*0.93 {
		t.Errorf("bandwidth dropped at the prime count: %.0f vs %.0f GB/s",
			m71.BandwidthBytes/1e9, m72.BandwidthBytes/1e9)
	}
}

// TestProfileHotspots: Listing 2 — advec_mom > advec_cell > pdv, and the
// three together take about 69% of the runtime (paper: 67.5-69.2% across
// all rank counts).
func TestProfileHotspots(t *testing.T) {
	for _, ranks := range []int{1, 18, 72} {
		m := modelFor(t, ranks)
		ks := m.KernelSeconds
		am, ac, pdv := ks["advec_mom_kernel"], ks["advec_cell_kernel"], ks["pdv_kernel"]
		if !(am > ac && ac > pdv) {
			t.Errorf("ranks=%d: hotspot order wrong: am=%g ac=%g pdv=%g", ranks, am, ac, pdv)
		}
		var total float64
		for _, v := range ks {
			total += v
		}
		share := (am + ac + pdv) / total
		if share < 0.60 || share < 0 || share > 0.80 {
			t.Errorf("ranks=%d: hotspot share %.1f%%, paper says ~69%%", ranks, 100*share)
		}
	}
}

// TestMPIShares: Fig. 4 — serial share stays in the 94-99% band and
// Waitall dominates the MPI time; prime counts spend relatively more in
// MPI than their neighbors.
func TestMPIShares(t *testing.T) {
	for _, ranks := range []int{2, 18, 38, 72} {
		m := modelFor(t, ranks)
		serial := m.StepSeconds / m.TotalStepSeconds
		if serial < 0.90 || serial > 0.999 {
			t.Errorf("ranks=%d: serial share %.3f outside the Fig. 4 band", ranks, serial)
		}
		mp := m.MPIPerStep
		if mp.Waitall <= mp.Allreduce {
			t.Errorf("ranks=%d: Waitall (%.3g) should dominate Allreduce (%.3g)",
				ranks, mp.Waitall, mp.Allreduce)
		}
	}
	// 1D decompositions exchange bigger (full-row) halos per rank.
	m19 := modelFor(t, 19)
	m18 := modelFor(t, 18)
	if m19.MPIPerStep.Waitall <= m18.MPIPerStep.Waitall {
		t.Errorf("1D halo exchange at 19 ranks (%.3g) should exceed 18 ranks (%.3g)",
			m19.MPIPerStep.Waitall, m18.MPIPerStep.Waitall)
	}
}

// TestScalingCurve: the start of the Fig. 2 curve. The modelled step
// time falls with every rank added, and four ranks run near 4x faster
// than one.
func TestScalingCurve(t *testing.T) {
	var serial, prev float64
	for n := 1; n <= 4; n++ {
		m, err := ModelNode(TrafficOptions{
			Machine: machine.ICX8360Y(), Ranks: n, MaxRows: 16, AlignArrays: true, HotspotOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			serial = m.TotalStepSeconds
		}
		speedup := serial / m.TotalStepSeconds
		if speedup <= prev {
			t.Errorf("%d-rank speedup %g not above %d-rank %g", n, speedup, n-1, prev)
		}
		prev = speedup
	}
	if prev < 3 {
		t.Errorf("4-core speedup = %g, want near 4", prev)
	}
}
