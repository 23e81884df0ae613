package cloverleaf

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oneRank builds the serial solver: the rank of a one-rank world. Its
// meetings complete at once, so it runs outside world.run.
func oneRank(cfg Config) *Rank {
	return newWorld(cfg, 1).rank(0)
}

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
	r := oneRank(cfg)
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
	r := oneRank(cfg)
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
	r := oneRank(cfg)
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
	r := oneRank(cfg)
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
	r := oneRank(cfg)
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
	r := oneRank(cfg)
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

// stateFields are the fields the decomposition tests compare with the
// one-rank run: the ones a step's first exchange refreshes to depth 2.
var stateFields = []struct {
	name string
	kind FieldKind
	of   func(*Chunk) *Field
}{
	{"density0", KindCell, func(c *Chunk) *Field { return c.Density0 }},
	{"energy0", KindCell, func(c *Chunk) *Field { return c.Energy0 }},
	{"pressure", KindCell, func(c *Chunk) *Field { return c.Pressure }},
	{"xvel0", KindNodeX, func(c *Chunk) *Field { return c.XVel0 }},
	{"yvel0", KindNodeY, func(c *Chunk) *Field { return c.YVel0 }},
}

// runRanks runs cfg on a world of n ranks, refreshes the state fields'
// halos to depth 2 as the next step would, and returns every rank with
// the global summary.
func runRanks(t *testing.T, cfg Config, n int) ([]*Rank, Summary) {
	t.Helper()
	ranks := make([]*Rank, n)
	sums := make([]Summary, n)
	errs := make([]error, n)
	newWorld(cfg, n).run(func(r *Rank) {
		ranks[r.id] = r
		s, err := r.Run()
		if err == nil {
			fields := make([]HaloField, len(stateFields))
			for i, sf := range stateFields {
				fields[i] = HaloField{sf.of(r.Chunk), sf.kind}
			}
			r.halo(fields, 2)
		}
		sums[r.id], errs[r.id] = s, err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("np=%d rank %d: %v", n, i, err)
		}
	}
	return ranks, sums[0]
}

// compareFields requires every state-field value the ranks hold to be
// bit-identical to ref's at the same global position: the inner cells
// and nodes only, or with halo set, the halo around them too.
func compareFields(t *testing.T, ranks []*Rank, ref *Chunk, halo bool) {
	t.Helper()
	diff, total := 0, 0
	for _, r := range ranks {
		c := r.Chunk
		for _, sf := range stateFields {
			got, want := sf.of(c), sf.of(ref)
			jLo, jHi, kLo, kHi := c.XMin, c.XMax, c.YMin, c.YMax
			if sf.kind.XNode {
				jHi++
			}
			if sf.kind.YNode {
				kHi++
			}
			if halo {
				jLo, jHi, kLo, kHi = got.JLo, got.JHi, got.KLo, got.KHi
			}
			for k := kLo; k <= kHi; k++ {
				for j := jLo; j <= jHi; j++ {
					total++
					g, w := got.At(j, k), want.At(j, k)
					if math.Float64bits(g) == math.Float64bits(w) {
						continue
					}
					if diff++; diff <= 3 {
						t.Errorf("rank %d %s(%d,%d) = %.17g, one rank has %.17g", r.id, sf.name, j, k, g, w)
					}
				}
			}
		}
	}
	if diff > 0 {
		t.Errorf("%d of %d values differ from the one-rank run", diff, total)
	}
}

// checkDecomposition runs cfg on one rank and on each of nps ranks. Every
// inner cell and node of the state fields must be bit-identical to the
// one-rank run, and the global summary may differ from it only in the
// order the ranks' parts are summed.
func checkDecomposition(t *testing.T, cfg Config, nps ...int) {
	t.Helper()
	one, oneSum := runRanks(t, cfg, 1)
	for _, n := range nps {
		t.Run(fmt.Sprintf("%dx%d/np%d", cfg.GridX, cfg.GridY, n), func(t *testing.T) {
			ranks, sum := runRanks(t, cfg, n)
			compareFields(t, ranks, one[0].Chunk, false)
			for _, q := range []struct {
				name      string
				got, want float64
			}{
				{"volume", sum.Volume, oneSum.Volume},
				{"mass", sum.Mass, oneSum.Mass},
				{"internal energy", sum.InternalEnergy, oneSum.InternalEnergy},
				{"kinetic energy", sum.KineticEnergy, oneSum.KineticEnergy},
				{"pressure", sum.Pressure, oneSum.Pressure},
			} {
				if d := relDiff(q.got, q.want); d > 1e-12 {
					t.Errorf("summary %s %.17g, one rank %.17g (relative %.2e)", q.name, q.got, q.want, d)
				}
			}
		})
	}
}

// TestSerialVsMPIEquivalence: on square and rectangular rank grids the
// hydro matches the serial (one-rank) run bit for bit, on a square and
// on a prime mesh.
func TestSerialVsMPIEquivalence(t *testing.T) {
	for _, cells := range []int{40, 41} {
		checkDecomposition(t, Small(cells, 16), 2, 4, 6, 9, 12)
	}
}

// TestMPIPrimeRankCount: prime rank counts force the 1-D decomposition
// along the inner dimension, and it too matches the one-rank run bit for
// bit.
func TestMPIPrimeRankCount(t *testing.T) {
	for _, cells := range []int{40, 41} {
		checkDecomposition(t, Small(cells, 16), 3, 5, 7)
	}
}

// TestHaloExchangeConsistency: the halo protocol is exact. After a
// depth-2 exchange every halo value a rank holds, whether a neighbour
// sent it or a wall reflected it, corners included, equals the one-rank
// run's value at that global position.
func TestHaloExchangeConsistency(t *testing.T) {
	cfg := Small(41, 16)
	one, _ := runRanks(t, cfg, 1)
	for _, n := range []int{4, 5, 6} {
		t.Run(fmt.Sprintf("np%d", n), func(t *testing.T) {
			ranks, _ := runRanks(t, cfg, n)
			compareFields(t, ranks, one[0].Chunk, true)
		})
	}
}

// TestRunSummaryDeterministic: the global summary reduces the ranks'
// parts in rank order, whatever order they arrive in, so repeated runs
// of one world give one summary, bit for bit.
func TestRunSummaryDeterministic(t *testing.T) {
	bits := func(s Summary) [5]uint64 {
		return [5]uint64{math.Float64bits(s.Volume), math.Float64bits(s.Mass), math.Float64bits(s.InternalEnergy),
			math.Float64bits(s.KineticEnergy), math.Float64bits(s.Pressure)}
	}
	var want [5]uint64
	for i := 0; i < 40; i++ {
		s, err := Run(Small(60, 4), 7)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = bits(s)
		} else if got := bits(s); got != want {
			t.Fatalf("run %d summary bits %x, run 0 %x", i, got, want)
		}
	}
}

// TestRunSummaryBits pins the summary bits of small one-, three- and
// four-rank runs. The decomposition tests compare n ranks with one
// rank, so a change to the step that both share passes them; this
// test does not. The bits differ across rank counts because the
// world sums the ranks' partial sums in rank order.
func TestRunSummaryBits(t *testing.T) {
	cases := []struct {
		cells, np int
		want      [5]uint64 // volume, mass, internal energy, kinetic energy, pressure
	}{
		{40, 1, [5]uint64{0x3f5a36e2eb1c428a, 0x3f3f75104d551dbd, 0x3f490a1f4dc3a264, 0x3eee614cee6beab3, 0x3f3408190b02e91b}},
		{40, 3, [5]uint64{0x3f5a36e2eb1c4386, 0x3f3f75104d551db4, 0x3f490a1f4dc3a25c, 0x3eee614cee6beab4, 0x3f3408190b02e86d}},
		{40, 4, [5]uint64{0x3f5a36e2eb1c4368, 0x3f3f75104d551d82, 0x3f490a1f4dc3a240, 0x3eee614cee6beab4, 0x3f3408190b02e82e}},
		{41, 1, [5]uint64{0x3f5b8aa00192a675, 0x3f40426d62d9ea1c, 0x3f498e84e17ddb91, 0x3eef392766daaa31, 0x3f347203e797e3aa}},
		{41, 3, [5]uint64{0x3f5b8aa00192a79a, 0x3f40426d62d9ea13, 0x3f498e84e17ddb83, 0x3eef392766daaa37, 0x3f347203e797e2f3}},
		{41, 4, [5]uint64{0x3f5b8aa00192a77c, 0x3f40426d62d9e9f8, 0x3f498e84e17ddb6c, 0x3eef392766daaa34, 0x3f347203e797e2b0}},
	}
	for _, c := range cases {
		s, err := Run(Small(c.cells, 16), c.np)
		if err != nil {
			t.Fatal(err)
		}
		got := [5]uint64{math.Float64bits(s.Volume), math.Float64bits(s.Mass), math.Float64bits(s.InternalEnergy),
			math.Float64bits(s.KineticEnergy), math.Float64bits(s.Pressure)}
		if got != c.want {
			t.Errorf("%d² x 16 steps on %d ranks: summary bits %#x, want %#x", c.cells, c.np, got, c.want)
		}
	}
}

// TestRunRejectsChunksNarrowerThanHalo: a rank count that leaves a
// chunk narrower or shorter than the 2-cell halo fails before any rank
// starts; counts whose chunks hold the halo run.
func TestRunRejectsChunksNarrowerThanHalo(t *testing.T) {
	for _, n := range []int{5, 7} {
		if _, err := Run(Small(8, 2), n); err == nil || !strings.Contains(err.Error(), "narrower than the 2-cell halo") {
			t.Errorf("np %d on 8x8: error %v, want chunks narrower than the halo", n, err)
		}
	}
	for _, n := range []int{2, 4, 8} {
		if _, err := Run(Small(8, 2), n); err != nil {
			t.Errorf("np %d on 8x8: %v", n, err)
		}
	}
}

// TestRunMPIRankCount: fewer than one rank is an error, not a run of an
// empty world.
func TestRunMPIRankCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := Run(Small(16, 2), n); err == nil {
			t.Errorf("%d ranks accepted", n)
		}
	}
}

func TestSummaryPressureSigns(t *testing.T) {
	cfg := Small(32, 3)
	s, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pressure <= 0 || s.Volume <= 0 || s.Mass <= 0 || s.InternalEnergy <= 0 {
		t.Fatalf("non-physical summary: %+v", s)
	}
}

// BenchmarkPhysicsStep times hydro steps of the serial run, the rank of
// a one-rank world.
func BenchmarkPhysicsStep(b *testing.B) {
	r := oneRank(Small(256, 1000000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(i + 1); err != nil {
			b.Fatal(err)
		}
	}
	cells := float64(256 * 256)
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}
