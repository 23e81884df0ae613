package cloverleaf

import (
	"math"
	"testing"

	"cloversim/internal/riemann"
)

// sodConfig builds the Sod shock tube as a quasi-1D CloverLeaf problem:
// a [0,1] x [0,h] domain with the diaphragm at x = 0.5, left state
// rho=1, p=1 (e=2.5), right state rho=0.125, p=0.1 (e=2.0).
func sodConfig(nx, ny, steps int, endTime float64) Config {
	return Config{
		GridX: nx, GridY: ny,
		XMin: 0, XMax: 1, YMin: 0, YMax: float64(ny) / float64(nx),
		States: []State{
			{Density: 0.125, Energy: 2.0},                                     // right/background
			{Density: 1.0, Energy: 2.5, XMin: 0, XMax: 0.5, YMin: 0, YMax: 1}, // left
		},
		EndStep: steps,
		EndTime: endTime,
		DtInit:  2e-4, DtMax: 2e-3, DtRise: 1.5,
		Gamma: 1.4,
	}
}

// TestSodShockTube validates the full 2D solver against the exact
// Riemann solution at t = 0.2: plateau densities, wave positions and the
// contact velocity must match within discretization error.
func TestSodShockTube(t *testing.T) {
	if testing.Short() {
		t.Skip("Sod tube takes a few seconds")
	}
	nx := 400
	cfg := sodConfig(nx, 8, 100000, 0.2)
	r := oneRank(cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Time()-0.2) > 1e-12 {
		t.Fatalf("end time %g, want 0.2", r.Time())
	}

	exact, err := riemann.Sod().Solve()
	if err != nil {
		t.Fatal(err)
	}

	kMid := r.Chunk.YMin + (r.Chunk.YMax-r.Chunk.YMin+1)/2
	density := func(x float64) float64 {
		j := r.Chunk.XMin + int(x*float64(nx))
		return r.Chunk.Density0.At(j, kMid)
	}

	// Plateau checks away from the discontinuities (positions at t=0.2:
	// rarefaction 0.263..0.486, contact 0.685, shock 0.850).
	cases := []struct {
		x, want, tol float64
		name         string
	}{
		{0.15, 1.0, 0.02, "undisturbed left"},
		{0.40, exact.Sample((0.40 - 0.5) / 0.2).Rho, 0.05, "inside rarefaction"},
		{0.58, 0.42632, 0.05, "left star plateau"},
		{0.76, 0.26557, 0.07, "right star plateau"},
		{0.95, 0.125, 0.02, "undisturbed right"},
	}
	for _, c := range cases {
		got := density(c.x)
		if rel := math.Abs(got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s: rho(%.2f) = %.4f, exact %.4f (%.1f%% off)",
				c.name, c.x, got, c.want, 100*rel)
		}
	}

	// Shock position: find where density crosses the mid-point between
	// the star and right states; must be near x = 0.5 + 1.75216*0.2.
	target := (0.26557 + 0.125) / 2
	shockX := 0.0
	for j := r.Chunk.XMin; j < r.Chunk.XMax; j++ {
		if r.Chunk.Density0.At(j, kMid) > target && r.Chunk.Density0.At(j+1, kMid) <= target {
			shockX = (float64(j-r.Chunk.XMin) + 0.5) / float64(nx)
		}
	}
	wantShock := 0.5 + 1.75216*0.2
	if math.Abs(shockX-wantShock) > 0.03 {
		t.Errorf("shock at x = %.3f, exact %.3f", shockX, wantShock)
	}

	// Contact velocity: the post-shock plateau moves at u* = 0.92745.
	// Node velocity at x = 0.76.
	j := r.Chunk.XMin + int(0.76*float64(nx))
	u := r.Chunk.XVel0.At(j, kMid)
	if math.Abs(u-0.92745) > 0.06 {
		t.Errorf("star velocity = %.4f, exact 0.92745", u)
	}

	// The tube is 1D: no y velocity develops in the interior.
	maxV := 0.0
	for j := r.Chunk.XMin + 5; j <= r.Chunk.XMax-5; j++ {
		maxV = math.Max(maxV, math.Abs(r.Chunk.YVel0.At(j, kMid)))
	}
	if maxV > 1e-8 {
		t.Errorf("1D problem developed y velocity %g", maxV)
	}
}

// TestEndTimeClamping: the driver hits EndTime exactly and stops.
func TestEndTimeClamping(t *testing.T) {
	cfg := sodConfig(64, 4, 100000, 0.01)
	r := oneRank(cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Time()-0.01) > 1e-12 {
		t.Fatalf("end time %g, want exactly 0.01", r.Time())
	}
}
