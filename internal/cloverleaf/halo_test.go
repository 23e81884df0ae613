package cloverleaf

import (
	"math"
	"testing"
)

// TestReflectiveBoundaryKinds checks the physical boundary conditions:
// cell fields mirror symmetrically, the normal velocity component flips
// sign, flux components flip at their normal boundary.
func TestReflectiveBoundaryKinds(t *testing.T) {
	r := oneRank(Small(16, 1))
	c := r.Chunk

	// Give the fields recognizable interior values.
	for k := 1; k <= 16; k++ {
		for j := 1; j <= 16; j++ {
			c.Density0.Set(j, k, float64(100*j+k))
		}
	}
	for k := 1; k <= 17; k++ {
		for j := 1; j <= 17; j++ {
			c.XVel0.Set(j, k, float64(10*j+k))
		}
	}
	r.halo([]HaloField{
		{c.Density0, KindCell},
		{c.XVel0, KindNodeX},
	}, 2)

	// Cell symmetry at the left boundary: f(0,k) == f(1,k), f(-1,k) == f(2,k).
	for k := 1; k <= 16; k++ {
		if c.Density0.At(0, k) != c.Density0.At(1, k) {
			t.Fatalf("cell reflect depth 1 wrong at k=%d", k)
		}
		if c.Density0.At(-1, k) != c.Density0.At(2, k) {
			t.Fatalf("cell reflect depth 2 wrong at k=%d", k)
		}
	}
	// Node antisymmetry at the left boundary: xvel(0,k) == -xvel(2,k)
	// (mirror about the boundary node j=1).
	for k := 1; k <= 16; k++ {
		if c.XVel0.At(0, k) != -c.XVel0.At(2, k) {
			t.Fatalf("xvel antisymmetry wrong at k=%d: %g vs %g",
				k, c.XVel0.At(0, k), c.XVel0.At(2, k))
		}
	}
	// y boundary: xvel is tangential there — symmetric, no sign flip.
	for j := 1; j <= 16; j++ {
		if c.XVel0.At(j, 0) != c.XVel0.At(j, 2) {
			t.Fatalf("xvel y-symmetry wrong at j=%d", j)
		}
	}
}

// TestBoundaryVelocityStaysZero: with reflective walls, the normal
// velocity on the physical boundary nodes remains (anti)symmetric over a
// full run — the condition for mass conservation.
func TestBoundaryVelocityStaysZero(t *testing.T) {
	cfg := Small(32, 10)
	r := oneRank(cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	c := r.Chunk
	// After reflection, xvel(0,k) = -xvel(2,k): verify the halo keeps
	// the antisymmetric property (the solver reads it every step).
	r.halo([]HaloField{{c.XVel0, KindNodeX}}, 1)
	for k := 1; k <= 32; k++ {
		if got := c.XVel0.At(0, k) + c.XVel0.At(2, k); math.Abs(got) > 1e-15 {
			t.Fatalf("antisymmetry violated at k=%d: %g", k, got)
		}
	}
}

// BenchmarkHaloExchange4Ranks times depth-2 halo updates of a cell and
// a node field on a world of four ranks.
func BenchmarkHaloExchange4Ranks(b *testing.B) {
	newWorld(Small(128, 1), 4).run(func(r *Rank) {
		fields := []HaloField{{r.Chunk.Density0, KindCell}, {r.Chunk.XVel0, KindNodeX}}
		for i := 0; i < b.N; i++ {
			r.halo(fields, 2)
		}
	})
}
