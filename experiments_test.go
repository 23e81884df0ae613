package cloversim

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"cloversim/internal/trace"
)

func TestOptionsDefaults(t *testing.T) {
	o, spec, err := Options{}.resolve()
	if err != nil || o.MachineName != "icx" || spec.Name != "icx" || o.MaxRows != 32 || o.Seed == 0 {
		t.Fatalf("defaults: %+v %v", o, err)
	}
	if o, _, err := (Options{MaxRows: -1}).resolve(); err != nil || o.MaxRows != -1 {
		t.Errorf("MaxRows -1 resolved to %d (%v), want -1: the full extent", o.MaxRows, err)
	}
	if _, _, err := (Options{MachineName: "nope"}).resolve(); err == nil {
		t.Error("unknown machine accepted")
	}
	if len(Machines()) < 5 {
		t.Error("machine presets missing")
	}
}

// TestRankList: a Ranks entry outside 1..cores is an error in every
// runner, before anything is simulated; valid lists are used as given.
func TestRankList(t *testing.T) {
	o := Options{Ranks: []int{72, 1, 5}}
	if _, _, err := o.resolve(); err != nil {
		t.Fatal(err)
	}
	if got := o.rankList(72); !slices.Equal(got, []int{72, 1, 5}) {
		t.Fatalf("rankList %v, want the list as given", got)
	}
	if got := (Options{}).rankList(3); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("default rank list %v", got)
	}
	for _, ranks := range [][]int{{0}, {1, 73}, {-5, 2}} {
		if _, _, err := (Options{Ranks: ranks}).resolve(); err == nil {
			t.Errorf("ranks %v accepted on icx", ranks)
		}
	}
	if _, _, err := (Options{MachineName: "spr8480", Ranks: []int{112}}).resolve(); err != nil {
		t.Errorf("112 ranks rejected on spr8480: %v", err)
	}

	memo := trace.NewMemo()
	ctx := trace.WithMemo(t.Context(), memo)
	bad := Options{Ranks: []int{0, 80}}
	for name, run := range map[string]func() error{
		"profile": func() error { _, _, err := Listing2Profile(ctx, bad); return err },
		"table1":  func() error { _, _, err := TableI(ctx, bad); return err },
		"scaling": func() error { _, _, err := Figure2Scaling(ctx, bad); return err },
		"balance": func() error { _, _, err := Figure3CodeBalance(ctx, bad); return err },
		"mpi":     func() error { _, _, err := Figure4MPIShare(ctx, bad); return err },
		"stores":  func() error { _, _, err := FigureStoreRatio(ctx, bad); return err },
		"copyvol": func() error { _, _, err := Figure6CopyVolumes(ctx, bad); return err },
		"model":   func() error { _, _, err := Figure7RefinedModel(ctx, bad); return err },
		"halo":    func() error { _, _, err := FigureHaloCopy(ctx, bad, false); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "rank count 0 outside 1..72") {
			t.Errorf("%s with ranks %v: err %v", name, bad.Ranks, err)
		}
	}
	if st := memo.Stats(); st != (trace.MemoStats{}) {
		t.Errorf("rejected runs touched the memo: %+v", st)
	}
}

// TestFigureOnContextMemo: a runner replays its loops through the memo
// its context carries, so running a figure again on that context
// simulates nothing, and the shared memo changes no byte of the table.
func TestFigureOnContextMemo(t *testing.T) {
	o := Options{Ranks: []int{1, 71, 72}, MaxRows: 16}
	csv := func(ctx context.Context) []byte {
		t.Helper()
		_, table, err := Figure3CodeBalance(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := table.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	memo := trace.NewMemo()
	ctx := trace.WithMemo(t.Context(), memo)
	first := csv(ctx)
	cold := memo.Stats()
	second := csv(ctx)
	warm := memo.Stats()
	if cold.Replays == 0 || warm.Replays != cold.Replays || warm.Hits <= cold.Hits {
		t.Errorf("memo stats after the first run %+v, after the second %+v: want replays only in the first", cold, warm)
	}
	fresh := csv(t.Context())
	if !bytes.Equal(first, fresh) || !bytes.Equal(second, fresh) {
		t.Errorf("tables differ:\nfirst:\n%s\nsecond:\n%s\nfresh context:\n%s", first, second, fresh)
	}
}

func TestListing2ProfileShape(t *testing.T) {
	p, table, err := Listing2Profile(t.Context(), Options{MaxRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	top := p.Top(3)
	if top[0].Name != "advec_mom_kernel" || top[1].Name != "advec_cell_kernel" || top[2].Name != "pdv_kernel" {
		t.Fatalf("hotspot order: %v %v %v", top[0].Name, top[1].Name, top[2].Name)
	}
	share := p.Share("advec_mom_kernel", "advec_cell_kernel", "pdv_kernel")
	if share < 60 || share > 80 {
		t.Errorf("hotspot share %.1f%%, paper says ~69%%", share)
	}
	if len(table.Rows) == 0 {
		t.Error("empty profile table")
	}
}

func TestTableIReproduction(t *testing.T) {
	rows, table, err := TableI(t.Context(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 || len(table.Rows) != 22 {
		t.Fatalf("%d rows", len(rows))
	}
	var worst float64
	for _, r := range rows {
		e := math.Abs(r.Simulated-r.MeasuredSingleCore) / r.MeasuredSingleCore
		if e > worst {
			worst = e
		}
	}
	if worst > 0.03 {
		t.Errorf("worst single-core error %.1f%%, want <= 3%%", 100*worst)
	}
}

func TestFigure2SubsetShape(t *testing.T) {
	pts, table, err := Figure2Scaling(t.Context(), Options{Ranks: []int{1, 4, 18, 36, 71, 72}, MaxRows: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 || len(table.Rows) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	by := map[int]float64{}
	for _, p := range pts {
		by[p.Ranks] = p.Speedup
		if p.Prime != (p.Ranks == 71) {
			t.Errorf("ranks %d flagged prime=%v", p.Ranks, p.Prime)
		}
	}
	if by[1] != 1 {
		t.Errorf("serial speedup %g", by[1])
	}
	if by[4] < 3 {
		t.Errorf("4-rank speedup %.2f, want near 4", by[4])
	}
	if by[71] >= by[72] {
		t.Errorf("prime drop missing: speedup(71)=%.2f >= speedup(72)=%.2f", by[71], by[72])
	}
	if by[72] < 25 {
		t.Errorf("full-node speedup %.1f unreasonably low", by[72])
	}
	// Without the serial run in the list, the speedup is still over it.
	sub, _, err := Figure2Scaling(t.Context(), Options{Ranks: []int{72}, MaxRows: 24})
	if err != nil {
		t.Fatal(err)
	}
	if sub[0].Speedup != by[72] {
		t.Errorf("speedup(72) %g without the serial point, %g with it", sub[0].Speedup, by[72])
	}
}

func TestFigure3ClassBehaviour(t *testing.T) {
	pts, _, err := Figure3CodeBalance(t.Context(), Options{Ranks: []int{1, 36, 71, 72}, MaxRows: 24})
	if err != nil {
		t.Fatal(err)
	}
	get := func(ranks int, loop string) float64 {
		for _, p := range pts {
			if p.Ranks == ranks {
				return p.Balance[loop]
			}
		}
		t.Fatalf("ranks %d missing", ranks)
		return 0
	}
	// Class (i): strong reduction within the domain, strong prime effect.
	if !(get(36, "am04") < get(1, "am04")*0.8) {
		t.Error("am04 balance should drop strongly with ranks")
	}
	if !(get(71, "am04") > get(72, "am04")*1.04) {
		t.Error("am04 should show the prime effect")
	}
	// Class (iii): flat.
	for _, l := range []string{"am07", "ac03"} {
		if math.Abs(get(72, l)-get(1, l))/get(1, l) > 0.03 {
			t.Errorf("class-(iii) loop %s not flat: %g vs %g", l, get(1, l), get(72, l))
		}
	}
}

func TestFigure4Shares(t *testing.T) {
	shares, _, err := Figure4MPIShare(t.Context(), Options{MaxRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 8 {
		t.Fatalf("%d rank points, want the paper's 8", len(shares))
	}
	by := map[int]MPIShare{}
	for _, s := range shares {
		by[s.Ranks] = s
		if s.Serial < 90 || s.Serial > 100 {
			t.Errorf("ranks=%d serial share %.1f%% outside Fig. 4 band", s.Ranks, s.Serial)
		}
	}
	// The paper: 19, 37, 38, 71 show at least twice the MPI share of
	// their neighbors 18/36/72 (1D or thin decompositions).
	mpi := func(s MPIShare) float64 { return 100 - s.Serial }
	if mpi(by[19]) < 1.7*mpi(by[18]) {
		t.Errorf("19-rank MPI share %.2f%% not >> 18-rank %.2f%%", mpi(by[19]), mpi(by[18]))
	}
	if mpi(by[71]) < 1.7*mpi(by[72]) {
		t.Errorf("71-rank MPI share %.2f%% not >> 72-rank %.2f%%", mpi(by[71]), mpi(by[72]))
	}
}

func TestFigureStoreRatioICXAnchors(t *testing.T) {
	pts, _, err := FigureStoreRatio(t.Context(), Options{Ranks: []int{1, 36, 72}})
	if err != nil {
		t.Fatal(err)
	}
	by := map[int]StorePoint{}
	for _, p := range pts {
		by[p.Cores] = p
	}
	if math.Abs(by[1].Normal[0]-2.0) > 0.01 || math.Abs(by[1].NT[0]-1.0) > 0.01 {
		t.Errorf("serial anchors: %v %v", by[1].Normal[0], by[1].NT[0])
	}
	if by[36].Normal[0] > 1.1 {
		t.Errorf("socket ratio %.3f, want ~1.06", by[36].Normal[0])
	}
	if by[72].Normal[0] < 1.15 || by[72].Normal[0] > 1.3 {
		t.Errorf("node ratio %.3f, want 1.2-1.25", by[72].Normal[0])
	}
	if by[72].NT[0] < 1.1 || by[72].NT[0] > 1.25 {
		t.Errorf("node NT ratio %.3f, want ~1.16", by[72].NT[0])
	}
}

func TestFigure6Crossover(t *testing.T) {
	pts, _, err := Figure6CopyVolumes(t.Context(), Options{Ranks: []int{1, 9, 17}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].ReadPerIt-16) > 0.2 {
		t.Errorf("1-thread read %.2f, want 16", pts[0].ReadPerIt)
	}
	if pts[2].ReadPerIt > 8.5 || pts[2].SpecI2MPerIt < 7 {
		t.Errorf("17-thread: read %.2f i2m %.2f, want ~8/~8", pts[2].ReadPerIt, pts[2].SpecI2MPerIt)
	}
	for _, p := range pts {
		if math.Abs(p.WritePerIt-8) > 0.2 {
			t.Errorf("write volume %.2f at %d threads, want 8", p.WritePerIt, p.Threads)
		}
	}
}

func TestFigure7ModelError(t *testing.T) {
	rows, _, err := Figure7RefinedModel(t.Context(), Options{MaxRows: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("%d rows", len(rows))
	}
	var sumErr float64
	improved := 0
	for _, r := range rows {
		sumErr += math.Abs(r.Original-r.Prediction) / r.Prediction
		if r.Optimized < r.Original*0.999 {
			improved++
		}
		if r.PredictionMin > r.Prediction+1e-9 {
			t.Errorf("%s: min %g above refined %g", r.Loop, r.PredictionMin, r.Prediction)
		}
	}
	if avg := sumErr / 22; avg > 0.07 {
		t.Errorf("refined-model average error %.1f%%, paper achieves ~7%%", 100*avg)
	}
	if improved < 8 {
		t.Errorf("only %d loops improved by the optimized build", improved)
	}
}

func TestFigureHaloCopyOrdering(t *testing.T) {
	pts, _, err := FigureHaloCopy(t.Context(), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	a216 := AverageRatio(pts, 216, false)
	a530 := AverageRatio(pts, 530, false)
	a1920 := AverageRatio(pts, 1920, false)
	if !(a216 > a530 && a530 > a1920 && a1920 < 1.10) {
		t.Errorf("halo ordering: 216=%.3f 530=%.3f 1920=%.3f", a216, a530, a1920)
	}
	if AverageRatio(pts, 999, false) != 0 {
		t.Error("missing dimension should average to 0")
	}
}

func TestSPRMachinesRun(t *testing.T) {
	pts, _, err := FigureStoreRatio(t.Context(), Options{MachineName: "spr8480", Ranks: []int{1, 56, 112}})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Normal[0] > 1.6 || pts[1].Normal[0] < 1.4 {
		t.Errorf("SPR socket ratio %.3f, want ~1.5", pts[1].Normal[0])
	}
	// SNC-on 8470 runs too (Fig. 9).
	if _, _, err := FigureStoreRatio(t.Context(), Options{MachineName: "spr8470+s", Ranks: []int{1, 13, 26}}); err != nil {
		t.Fatal(err)
	}
}
