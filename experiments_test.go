package cloversim

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cloversim/internal/csvout"
	"cloversim/internal/trace"
)

func TestOptionsDefaults(t *testing.T) {
	o, spec, err := Options{}.resolve()
	if err != nil || o.MachineName != "icx" || spec.Name != "icx" {
		t.Fatalf("defaults: %+v %v", o, err)
	}
	if to, err := (Options{}).trafficOpts(context.Background(), 1); err != nil || to.MaxRows != 32 {
		t.Errorf("MaxRows 0 studies %d rows (%v), want the default 32", to.MaxRows, err)
	}
	if to, err := (Options{MaxRows: -1}).trafficOpts(context.Background(), 1); err != nil || to.MaxRows != 0 {
		t.Errorf("MaxRows -1 studies %d rows (%v), want 0: the full extent", to.MaxRows, err)
	}
	for _, rows := range []int{-2, -7, -32} {
		if _, _, err := (Options{MaxRows: rows}).resolve(); err == nil {
			t.Errorf("MaxRows %d accepted", rows)
		}
		if to, err := (Options{MaxRows: rows}).trafficOpts(context.Background(), 1); err == nil {
			t.Errorf("MaxRows %d studies %d rows, want an error", rows, to.MaxRows)
		}
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
	for name, run := range runners {
		if _, err := run(ctx, bad); err == nil || !strings.Contains(err.Error(), "rank count 0 outside 1..72") {
			t.Errorf("%s with ranks %v: err %v", name, bad.Ranks, err)
		}
	}
	if st := memo.Stats(); st != (trace.MemoStats{}) {
		t.Errorf("rejected runs touched the memo: %+v", st)
	}
}

// runners names every figure runner by its cmd/experiments experiment.
var runners = map[string]func(context.Context, Options) (*csvout.Table, error){
	"profile": Listing2Profile,
	"table1":  TableI,
	"scaling": Figure2Scaling,
	"balance": Figure3CodeBalance,
	"mpi":     Figure4MPIShare,
	"stores":  FigureStoreRatio,
	"copyvol": Figure6CopyVolumes,
	"model":   Figure7RefinedModel,
	"halo":    FigureHaloCopy,
}

// TestFigureOnContextMemo: a runner replays its loops through the memo
// its context carries, so running a figure again on that context
// simulates nothing, and the shared memo changes no byte of the table.
func TestFigureOnContextMemo(t *testing.T) {
	o := Options{Ranks: []int{1, 71, 72}, MaxRows: 16}
	csv := func(ctx context.Context) []byte {
		t.Helper()
		table, err := Figure3CodeBalance(ctx, o)
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

// figurePath is where the committed CSV of one figure lives: the bytes
// `cmd/experiments -exp all` writes, which CI regenerates and compares.
func figurePath(name string) string {
	return filepath.Join("testdata", "figures", name+".csv")
}

// figure reads the committed CSV of one figure.
func figure(t *testing.T, name string) *csvout.Table {
	t.Helper()
	f, err := os.Open(figurePath(name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil || len(recs) < 2 {
		t.Fatalf("%s: %d records (%v)", name, len(recs), err)
	}
	return &csvout.Table{Header: recs[0], Rows: recs[1:]}
}

// column returns the named column of a committed figure as numbers.
func column(t *testing.T, tb *csvout.Table, name string) []float64 {
	t.Helper()
	v, err := tb.Floats(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// byKey returns the named column of a committed figure keyed by each
// row's first cell (its rank, core or thread count, or its loop).
func byKey(t *testing.T, tb *csvout.Table, name string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for i, v := range column(t, tb, name) {
		m[tb.Rows[i][0]] = v
	}
	return m
}

// TestFiguresRegenerate ties the committed figures to the runners: all
// 12 are regenerated on one memo, whole or at the rank counts that take
// each runner's paths, and every row must equal the committed row with
// the same key, byte for byte. The paper anchors below read the
// committed files, so they hold for what the runners write.
func TestFiguresRegenerate(t *testing.T) {
	ctx := trace.WithMemo(t.Context(), trace.NewMemo())
	ranks := func(machine string, r ...int) Options { return Options{MachineName: machine, Ranks: r} }
	for _, c := range []struct {
		name string
		exp  string
		o    Options
	}{
		{"listing2_profile", "profile", Options{}},
		{"table1", "table1", Options{}},
		{"fig2_scaling", "scaling", ranks("icx", 1, 71, 72)},
		{"fig2_scaling", "scaling", ranks("icx", 71, 72)}, // models the serial run itself
		{"fig3_code_balance", "balance", ranks("icx", 1, 71, 72)},
		{"fig4_mpi_share", "mpi", ranks("icx", 18, 19, 71, 72)},
		{"stores_icx", "stores", ranks("icx", 1, 36, 72)},
		{"stores_spr8470+s", "stores", ranks("spr8470+s", 1, 52, 104)},
		{"stores_spr8480", "stores", ranks("spr8480", 1, 56, 112)},
		{"fig6_copy_volumes", "copyvol", Options{}},
		{"fig7_refined_model", "model", Options{}},
		{"halo_icx", "halo", Options{}},
		{"halo_spr8480", "halo", Options{MachineName: "spr8480"}},
	} {
		got, err := runners[c.exp](ctx, c.o)
		if err != nil {
			t.Fatalf("%s at ranks %v: %v", c.name, c.o.Ranks, err)
		}
		if len(c.o.Ranks) == 0 {
			var b bytes.Buffer
			if err := got.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			if want, err := os.ReadFile(figurePath(c.name)); err != nil || !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s differs from %s (%v):\n%s", c.name, figurePath(c.name), err, b.Bytes())
			}
			continue
		}
		want := figure(t, c.name)
		if !slices.Equal(got.Header, want.Header) {
			t.Errorf("%s header %v, committed %v", c.name, got.Header, want.Header)
		}
		committed := map[string][]string{}
		for _, r := range want.Rows {
			committed[r[0]] = r
		}
		for _, r := range got.Rows {
			if w := committed[r[0]]; !slices.Equal(r, w) {
				t.Errorf("%s at ranks %v: row %q, committed %q", c.name, c.o.Ranks, strings.Join(r, ","), strings.Join(w, ","))
			}
		}
	}
}

// TestListing2ProfileSortedAndPercent: Listing 2 lists the kernels sorted
// by exclusive time under a <Total> row, each share its seconds over the
// total, and the shares summing to 100%.
func TestListing2ProfileSortedAndPercent(t *testing.T) {
	p := figure(t, "listing2_profile")
	sec, pct := column(t, p, "excl_sec"), column(t, p, "cpu_pct")
	if len(p.Rows) < 2 || p.Rows[0][0] != "<Total>" {
		t.Fatalf("profile rows %v", p.Rows)
	}
	var sumSec, sumPct float64
	for i := 1; i < len(sec); i++ {
		if i > 1 && sec[i] > sec[i-1] {
			t.Errorf("%s (%g s) listed after %s (%g s)", p.Rows[i][0], sec[i], p.Rows[i-1][0], sec[i-1])
		}
		if math.Abs(pct[i]-100*sec[i]/sec[0]) > 1e-3 {
			t.Errorf("%s: %g%% of the total, %g s of %g s", p.Rows[i][0], pct[i], sec[i], sec[0])
		}
		sumSec += sec[i]
		sumPct += pct[i]
	}
	// Fewer than ten kernels: every one is listed.
	if math.Abs(sumSec-sec[0]) > 1e-2 || math.Abs(sumPct-100) > 1e-2 {
		t.Errorf("kernels sum to %g s and %g%%, total %g s", sumSec, sumPct, sec[0])
	}
}

// TestListing2ProfileShape: Listing 2 — advec_mom > advec_cell > pdv, and
// the three together take about 69% of the runtime.
func TestListing2ProfileShape(t *testing.T) {
	p := figure(t, "listing2_profile")
	pct := column(t, p, "cpu_pct")
	if len(p.Rows) < 4 {
		t.Fatalf("profile rows %v", p.Rows)
	}
	if p.Rows[1][0] != "advec_mom_kernel" || p.Rows[2][0] != "advec_cell_kernel" || p.Rows[3][0] != "pdv_kernel" {
		t.Fatalf("hotspot order: %v %v %v", p.Rows[1][0], p.Rows[2][0], p.Rows[3][0])
	}
	if share := pct[1] + pct[2] + pct[3]; share < 60 || share > 80 {
		t.Errorf("hotspot share %.1f%%, paper says ~69%%", share)
	}
}

func TestTableIReproduction(t *testing.T) {
	tb := figure(t, "table1")
	meas, sim := column(t, tb, "bpi_paper_meas"), column(t, tb, "bpi_simulated")
	if len(meas) != 22 {
		t.Fatalf("%d rows", len(meas))
	}
	var worst float64
	for i := range meas {
		worst = math.Max(worst, math.Abs(sim[i]-meas[i])/meas[i])
	}
	if worst > 0.03 {
		t.Errorf("worst single-core error %.1f%%, want <= 3%%", 100*worst)
	}
}

func TestFigure2SubsetShape(t *testing.T) {
	tb := figure(t, "fig2_scaling")
	if len(tb.Rows) != 72 {
		t.Fatalf("%d points", len(tb.Rows))
	}
	by := byKey(t, tb, "speedup")
	prime := map[string]string{}
	for _, r := range tb.Rows {
		prime[r[0]] = r[5]
	}
	for _, n := range []string{"1", "4", "18", "36", "71", "72"} {
		if want := fmt.Sprint(n == "71"); prime[n] != want {
			t.Errorf("ranks %s flagged prime=%s, want %s", n, prime[n], want)
		}
	}
	if by["1"] != 1 {
		t.Errorf("serial speedup %g", by["1"])
	}
	if by["4"] < 3 {
		t.Errorf("4-rank speedup %.2f, want near 4", by["4"])
	}
	if by["71"] >= by["72"] {
		t.Errorf("prime drop missing: speedup(71)=%.2f >= speedup(72)=%.2f", by["71"], by["72"])
	}
	if by["72"] < 25 {
		t.Errorf("full-node speedup %.1f unreasonably low", by["72"])
	}
}

func TestFigure3ClassBehaviour(t *testing.T) {
	tb := figure(t, "fig3_code_balance")
	am04 := byKey(t, tb, "am04")
	// Class (i): strong reduction within the domain, strong prime effect.
	if !(am04["36"] < am04["1"]*0.8) {
		t.Error("am04 balance should drop strongly with ranks")
	}
	if !(am04["71"] > am04["72"]*1.04) {
		t.Error("am04 should show the prime effect")
	}
	// Class (iii): flat.
	for _, l := range []string{"am07", "ac03"} {
		b := byKey(t, tb, l)
		if math.Abs(b["72"]-b["1"])/b["1"] > 0.03 {
			t.Errorf("class-(iii) loop %s not flat: %g vs %g", l, b["1"], b["72"])
		}
	}
}

func TestFigure4Shares(t *testing.T) {
	tb := figure(t, "fig4_mpi_share")
	if len(tb.Rows) != 8 {
		t.Fatalf("%d rank points, want the paper's 8", len(tb.Rows))
	}
	serial := byKey(t, tb, "serial_pct")
	for n, s := range serial {
		if s < 90 || s > 100 {
			t.Errorf("ranks=%s serial share %.1f%% outside Fig. 4 band", n, s)
		}
	}
	// The paper: 19, 37, 38, 71 show at least twice the MPI share of
	// their neighbors 18/36/72 (1D or thin decompositions).
	mpi := func(n string) float64 { return 100 - serial[n] }
	if mpi("19") < 1.7*mpi("18") {
		t.Errorf("19-rank MPI share %.2f%% not >> 18-rank %.2f%%", mpi("19"), mpi("18"))
	}
	if mpi("71") < 1.7*mpi("72") {
		t.Errorf("71-rank MPI share %.2f%% not >> 72-rank %.2f%%", mpi("71"), mpi("72"))
	}
}

func TestFigureStoreRatioICXAnchors(t *testing.T) {
	tb := figure(t, "stores_icx")
	st1, nt1 := byKey(t, tb, "st1"), byKey(t, tb, "st_nt1")
	if math.Abs(st1["1"]-2.0) > 0.01 || math.Abs(nt1["1"]-1.0) > 0.01 {
		t.Errorf("serial anchors: %v %v", st1["1"], nt1["1"])
	}
	if st1["36"] > 1.1 {
		t.Errorf("socket ratio %.3f, want ~1.06", st1["36"])
	}
	if st1["72"] < 1.15 || st1["72"] > 1.3 {
		t.Errorf("node ratio %.3f, want 1.2-1.25", st1["72"])
	}
	if nt1["72"] < 1.1 || nt1["72"] > 1.25 {
		t.Errorf("node NT ratio %.3f, want ~1.16", nt1["72"])
	}
}

func TestFigure6Crossover(t *testing.T) {
	tb := figure(t, "fig6_copy_volumes")
	read, i2m := byKey(t, tb, "read_bpi"), byKey(t, tb, "speci2m_bpi")
	if math.Abs(read["1"]-16) > 0.2 {
		t.Errorf("1-thread read %.2f, want 16", read["1"])
	}
	if read["17"] > 8.5 || i2m["17"] < 7 {
		t.Errorf("17-thread: read %.2f i2m %.2f, want ~8/~8", read["17"], i2m["17"])
	}
	for n, w := range byKey(t, tb, "write_bpi") {
		if math.Abs(w-8) > 0.2 {
			t.Errorf("write volume %.2f at %s threads, want 8", w, n)
		}
	}
}

func TestFigure7ModelError(t *testing.T) {
	tb := figure(t, "fig7_refined_model")
	minimum, pred := column(t, tb, "prediction_min"), column(t, tb, "prediction")
	orig, opt := column(t, tb, "original_meas"), column(t, tb, "optimized_meas")
	if len(pred) != 22 {
		t.Fatalf("%d rows", len(pred))
	}
	var sumErr float64
	improved := 0
	for i := range pred {
		sumErr += math.Abs(orig[i]-pred[i]) / pred[i]
		if opt[i] < orig[i]*0.999 {
			improved++
		}
		if minimum[i] > pred[i]+1e-9 {
			t.Errorf("%s: min %g above refined %g", tb.Rows[i][0], minimum[i], pred[i])
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
	tb := figure(t, "halo_icx")
	ratio := column(t, tb, "rw_ratio")
	sum, n := map[string]float64{}, map[string]int{}
	for i, r := range tb.Rows {
		if r[2] == "false" { // prefetchers on
			sum[r[0]] += ratio[i]
			n[r[0]]++
		}
	}
	avg := func(inner string) float64 { return sum[inner] / float64(n[inner]) }
	if n["216"] != 18 || n["530"] != 18 || n["1920"] != 18 {
		t.Fatalf("halo points per dimension: %v", n)
	}
	if a216, a530, a1920 := avg("216"), avg("530"), avg("1920"); !(a216 > a530 && a530 > a1920 && a1920 < 1.10) {
		t.Errorf("halo ordering: 216=%.3f 530=%.3f 1920=%.3f", a216, a530, a1920)
	}
}

func TestSPRMachinesRun(t *testing.T) {
	if st1 := byKey(t, figure(t, "stores_spr8480"), "st1"); st1["56"] > 1.6 || st1["56"] < 1.4 {
		t.Errorf("SPR socket ratio %.3f, want ~1.5", st1["56"])
	}
	// SNC-on 8470 runs too (Fig. 9), on every core count.
	if tb := figure(t, "stores_spr8470+s"); len(tb.Rows) != 104 {
		t.Errorf("spr8470+s store figure has %d rows, want 104", len(tb.Rows))
	}
}
