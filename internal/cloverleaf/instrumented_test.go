package cloverleaf

import (
	"math"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/model"
)

// TestInstrumentedRunMatchesTable1: a real physics run with inline
// traffic replay yields the same single-core code balance as both the
// standalone traffic study and the paper's Table I.
func TestInstrumentedRunMatchesTable1(t *testing.T) {
	cfg := Small(96, 4)
	ir := NewInstrumentedSerialRank(cfg, InstrumentOptions{
		Machine: machine.ICX8360Y(),
		MaxRows: 32,
	})
	s, err := ir.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mass <= 0 {
		t.Fatal("physics side broke")
	}

	report := ir.BalanceReport()
	if len(report) != 22 {
		t.Fatalf("report covers %d loops", len(report))
	}
	// On the small grid rows are short relative to the Tiny set, so halo
	// overhead is larger; compare against LCF+WA with a loose bound.
	for _, row := range model.Table1 {
		got, ok := report[row.Name]
		if !ok {
			t.Fatalf("loop %s missing", row.Name)
		}
		pred := float64(row.BytesLCFWA())
		if e := math.Abs(got-pred) / pred; e > 0.25 {
			t.Errorf("%s: instrumented %.2f vs LCF+WA %.0f (%.0f%% off)",
				row.Name, got, pred, 100*e)
		}
	}

	// Marker call counts: integer-call loops ran every step, half-call
	// loops on alternating steps.
	if c := ir.Marker.Region("am04").Calls; c != int64(2*cfg.EndStep) {
		t.Errorf("am04 calls = %d, want %d", c, 2*cfg.EndStep)
	}
	if c := ir.Marker.Region("ac00").Calls; c != int64(cfg.EndStep/2) {
		t.Errorf("ac00 calls = %d, want %d", c, cfg.EndStep/2)
	}
}

// TestInstrumentedSpecI2MKnob: disabling the feature raises the measured
// traffic of evadable loops under saturation pressure.
func TestInstrumentedSpecI2MKnob(t *testing.T) {
	cfg := Small(96, 2)
	on := NewInstrumentedSerialRank(cfg, InstrumentOptions{
		Machine: machine.ICX8360Y(), ActiveRanks: 18, MaxRows: 24,
	})
	if _, err := on.Run(); err != nil {
		t.Fatal(err)
	}
	off := NewInstrumentedSerialRank(cfg, InstrumentOptions{
		Machine: machine.ICX8360Y(), ActiveRanks: 18, MaxRows: 24, SpecI2MOff: true,
	})
	if _, err := off.Run(); err != nil {
		t.Fatal(err)
	}
	bOn, bOff := on.BalanceReport(), off.BalanceReport()
	if bOn["am04"] >= bOff["am04"] {
		t.Errorf("SpecI2M on (%.2f) should beat off (%.2f) for am04",
			bOn["am04"], bOff["am04"])
	}
	// Class (iii) is knob-invariant.
	if math.Abs(bOn["am07"]-bOff["am07"]) > 0.5 {
		t.Errorf("am07 moved with the knob: %.2f vs %.2f", bOn["am07"], bOff["am07"])
	}
}
