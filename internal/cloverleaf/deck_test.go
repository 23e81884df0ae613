package cloverleaf

import (
	"strings"
	"testing"
)

const sampleDeck = `
*clover
 ! SPEChpc-style input deck
 state 1 density=0.2 energy=1.0
 state 2 density=1.0 energy=2.5 geometry=rectangle xmin=0.0 xmax=5.0 ymin=0.0 ymax=2.0

 x_cells=960
 y_cells=960

 xmin=0.0
 ymin=0.0
 xmax=10.0
 ymax=10.0

 initial_timestep=0.04
 max_timestep=0.04
 end_step=87
 test_problem 2
*endclover
`

func TestParseDeck(t *testing.T) {
	cfg, err := ParseDeck(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GridX != 960 || cfg.GridY != 960 || cfg.EndStep != 87 {
		t.Fatalf("parsed %dx%d, %d steps", cfg.GridX, cfg.GridY, cfg.EndStep)
	}
	if cfg.XMax != 10 || cfg.YMax != 10 {
		t.Fatalf("domain %g x %g", cfg.XMax, cfg.YMax)
	}
	if len(cfg.States) != 2 {
		t.Fatalf("%d states", len(cfg.States))
	}
	if cfg.States[0].Density != 0.2 || cfg.States[0].Energy != 1.0 {
		t.Errorf("background state %+v", cfg.States[0])
	}
	s2 := cfg.States[1]
	if s2.Density != 1.0 || s2.Energy != 2.5 || s2.XMax != 5 || s2.YMax != 2 {
		t.Errorf("state 2 %+v", s2)
	}
	if cfg.DtInit != 0.04 || cfg.DtRise != 1.5 {
		t.Errorf("timestep params %g %g", cfg.DtInit, cfg.DtRise)
	}
}

func TestParseDeckErrors(t *testing.T) {
	cases := map[string]string{
		"no states":      "*clover\n x_cells=10\n y_cells=10\n xmax=1\n ymax=1\n end_step=1\n*endclover\n",
		"missing state":  "*clover\n state 2 density=1 energy=1\n x_cells=10\n y_cells=10\n xmax=1\n ymax=1\n end_step=1\n*endclover\n",
		"bad geometry":   "*clover\n state 1 density=1 energy=1\n state 2 density=1 energy=1 geometry=circle\n x_cells=10\n y_cells=10\n xmax=1\n ymax=1\n end_step=1\n*endclover\n",
		"bad number":     "*clover\n state 1 density=abc energy=1\n x_cells=10\n y_cells=10\n xmax=1\n ymax=1\n end_step=1\n*endclover\n",
		"invalid config": "*clover\n state 1 density=1 energy=1\n x_cells=10\n y_cells=10\n xmax=1\n ymax=1\n end_step=0\n*endclover\n",
	}
	for name, deck := range cases {
		if _, err := ParseDeck(strings.NewReader(deck)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDeckIgnoresOutsideBlock(t *testing.T) {
	deck := "x_cells=99\n" + sampleDeck
	cfg, err := ParseDeck(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GridX != 960 {
		t.Errorf("directive outside *clover block applied: %d", cfg.GridX)
	}
}

func TestDeckRuns(t *testing.T) {
	// A parsed deck must actually simulate.
	deck := strings.Replace(sampleDeck, "x_cells=960", "x_cells=24", 1)
	deck = strings.Replace(deck, "y_cells=960", "y_cells=24", 1)
	deck = strings.Replace(deck, "end_step=87", "end_step=3", 1)
	cfg, err := ParseDeck(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mass <= 0 {
		t.Fatalf("deck run produced mass %g", s.Mass)
	}
}
