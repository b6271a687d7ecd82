package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/topo"
)

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// cell returns the value at (rowLabel, column header) in the table.
func cell(t *testing.T, tb *Table, rowLabel, col string) string {
	t.Helper()
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("column %q not in %v", col, tb.Header)
	}
	for _, row := range tb.Rows {
		if row[0] == rowLabel {
			return row[ci]
		}
	}
	t.Fatalf("row %q not found in table %s", rowLabel, tb.ID)
	return ""
}

// mustRun runs r at o and fails the test on a runner error.
func mustRun(t *testing.T, r Runner, o Opts) *Table {
	t.Helper()
	tb, err := r(o)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// quickAt runs r at QuickOpts fidelity on the given worker count.
func quickAt(t *testing.T, r Runner, workers int) *Table {
	t.Helper()
	o := QuickOpts()
	o.Workers = workers
	return mustRun(t, r, o)
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo",
		Header: []string{"A", "BB"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "A    BB", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	for _, id := range []string{
		"table1", "table4", "table5",
		"fig9a", "fig9b", "fig9c", "fig10", "fig11a", "fig11b", "fig11c", "fig12",
	} {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	ids := IDs()
	if len(ids) < 15 {
		t.Errorf("only %d experiments registered", len(ids))
	}
}

func TestDesignConfigStrings(t *testing.T) {
	if s := design2D(64).ConfigString(); s != "64x64" {
		t.Errorf("2D config %q", s)
	}
	if s := designFolded(64, 4).ConfigString(); s != "[16x64]x4" {
		t.Errorf("folded config %q", s)
	}
	if s := designHiRise("", 4, topo.CLRG).ConfigString(); s != "[(16x28), 16.(13x1)]x4" {
		t.Errorf("hirise config %q", s)
	}
}

func TestTableIVClaims(t *testing.T) {
	tb := mustRun(t, TableIV, QuickOpts())
	tput := func(name string) float64 { return atof(t, cell(t, tb, name, "Tput(Tbps)")) }

	c4, c2, c1 := tput("3D 4-Channel"), tput("3D 2-Channel"), tput("3D 1-Channel")
	d2, fold := tput("2D"), tput("3D Folded")

	if !(c4 > d2) {
		t.Errorf("4-channel (%.2f) must beat 2D (%.2f)", c4, d2)
	}
	if !(fold < d2) {
		t.Errorf("folded (%.2f) must trail 2D (%.2f)", fold, d2)
	}
	if !(c4 > c2 && c2 > c1) {
		t.Errorf("channel ordering broken: %.2f %.2f %.2f", c4, c2, c1)
	}
	// Paper: 4-channel beats 2D by ~18%; 1-channel is far below.
	if gain := c4/d2 - 1; gain < 0.08 || gain > 0.35 {
		t.Errorf("4-channel gain over 2D %.2f, want ~0.15-0.18", gain)
	}
	if c1/d2 > 0.7 {
		t.Errorf("1-channel (%.2f) should saturate far below 2D (%.2f)", c1, d2)
	}
	// TSV counts are exact.
	for _, want := range []struct{ row, tsvs string }{
		{"2D", "0"}, {"3D Folded", "8192"},
		{"3D 4-Channel", "6144"}, {"3D 2-Channel", "3072"}, {"3D 1-Channel", "1536"},
	} {
		if got := cell(t, tb, want.row, "#TSVs"); got != want.tsvs {
			t.Errorf("%s TSVs = %s, want %s", want.row, got, want.tsvs)
		}
	}
}

func TestTableIVReplicatedClaims(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, TableIVReplicated, o)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	mean := func(name string) float64 { return atof(t, cell(t, tb, name, "Mean Tbps")) }
	if !(mean("3D 4-Channel") > mean("2D") && mean("2D") > mean("3D 1-Channel")) {
		t.Errorf("ordering broken across seeds: %v", tb.Rows)
	}
	// Error bars must be small relative to the gaps the claims rest on.
	for _, r := range tb.Rows {
		se := atof(t, strings.TrimPrefix(r[2], "±"))
		if se > 0.2*atof(t, r[1]) {
			t.Errorf("%s: stderr %v too large vs mean %v", r[0], se, r[1])
		}
	}
}

func TestTableVClaims(t *testing.T) {
	tb := mustRun(t, TableV, QuickOpts())
	clrg := atof(t, cell(t, tb, "3D CLRG", "Tput(Tbps)"))
	l2l := atof(t, cell(t, tb, "3D L-2-L LRG", "Tput(Tbps)"))
	d2 := atof(t, cell(t, tb, "2D", "Tput(Tbps)"))
	if clrg > l2l {
		t.Errorf("CLRG (%.2f) should be at or marginally below L-2-L LRG (%.2f)", clrg, l2l)
	}
	if clrg/l2l < 0.95 {
		t.Errorf("CLRG (%.2f) should be within 5%% of L-2-L LRG (%.2f)", clrg, l2l)
	}
	if clrg/d2 < 1.05 {
		t.Errorf("CLRG (%.2f) should clearly beat 2D (%.2f)", clrg, d2)
	}
	if a, b := cell(t, tb, "3D CLRG", "Area(mm2)"), cell(t, tb, "3D L-2-L LRG", "Area(mm2)"); a != b {
		t.Errorf("CLRG area %s != L2L area %s", a, b)
	}
}

func TestFig9Tables(t *testing.T) {
	o := QuickOpts()
	a, b, c := mustRun(t, Fig9a, o), mustRun(t, Fig9b, o), mustRun(t, Fig9c, o)
	if len(a.Rows) != 8 || len(a.Header) != 5 {
		t.Errorf("fig9a shape %dx%d", len(a.Rows), len(a.Header))
	}
	if len(b.Rows) != 6 || len(b.Header) != 5 {
		t.Errorf("fig9b shape %dx%d", len(b.Rows), len(b.Header))
	}
	// 2D fastest at radix 16, slowest at radix 128 vs 4-channel.
	if atof(t, a.Rows[0][1]) <= atof(t, a.Rows[0][2]) {
		t.Error("fig9a: 2D should lead at radix 16")
	}
	last := len(a.Rows) - 1
	if atof(t, a.Rows[last][1]) >= atof(t, a.Rows[last][2]) {
		t.Error("fig9a: 3D should lead at radix 128")
	}
	// Energy slopes: 2D grows faster.
	d2Slope := atof(t, c.Rows[len(c.Rows)-1][1]) - atof(t, c.Rows[0][1])
	d3Slope := atof(t, c.Rows[len(c.Rows)-1][2]) - atof(t, c.Rows[0][2])
	if d3Slope >= d2Slope {
		t.Errorf("fig9c: 3D slope %.1f should be below 2D %.1f", d3Slope, d2Slope)
	}
}

func TestFig10Claims(t *testing.T) {
	tb := mustRun(t, Fig10, QuickOpts())
	// Zero-load (lowest load row): every 3D latency beats 2D by ~20%.
	row := tb.Rows[0]
	d2 := atof(t, row[1])
	for i, name := range []string{"3D 4-Channel", "3D 2-Channel", "3D 1-Channel"} {
		v := atof(t, row[2+i])
		if v >= d2 {
			t.Errorf("%s zero-load latency %.2f not below 2D %.2f", name, v, d2)
		}
	}
	// 1-channel saturates within the sweep; 4-channel survives longer.
	var c1Sat, c4Sat int
	for li, r := range tb.Rows {
		if r[4] == "sat" && c1Sat == 0 {
			c1Sat = li + 1
		}
		if r[2] == "sat" && c4Sat == 0 {
			c4Sat = li + 1
		}
	}
	if c1Sat == 0 {
		t.Error("1-channel never saturated in the sweep")
	}
	if c4Sat != 0 && c4Sat <= c1Sat {
		t.Errorf("4-channel saturated at row %d, not after 1-channel (row %d)", c4Sat, c1Sat)
	}
}

func TestFig11aClaims(t *testing.T) {
	o := QuickOpts()
	// The runner multiplies the windows by 4. The hotspot load delivers
	// only ~3 packets per input per 1000 cycles, so the latency-ratio
	// estimate needs a long window before its spread is smaller than the
	// effect under test.
	o.Warmup, o.Measure = 2000, 20000
	tb := mustRun(t, Fig11a, o)
	if len(tb.Rows) != 64 {
		t.Fatalf("fig11a rows %d, want 64", len(tb.Rows))
	}
	// Column 2 = L-2-L LRG, column 4 = CLRG. Compare local (48-63) vs
	// remote (0-47) mean latency.
	meanRange := func(col, lo, hi int) float64 {
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += atof(t, tb.Rows[i][col])
		}
		return sum / float64(hi-lo)
	}
	l2lRatio := meanRange(2, 48, 64) / meanRange(2, 0, 48)
	if l2lRatio < 1.8 {
		t.Errorf("L-2-L LRG local/remote latency ratio %.2f, want >> 1 (paper ~4)", l2lRatio)
	}
	clrgRatio := meanRange(4, 48, 64) / meanRange(4, 0, 48)
	if clrgRatio < 0.7 || clrgRatio > 1.5 {
		t.Errorf("CLRG local/remote latency ratio %.2f, want ~1", clrgRatio)
	}
}

func TestFig11cClaims(t *testing.T) {
	tb := mustRun(t, Fig11c, QuickOpts())
	if len(tb.Rows) != 5 {
		t.Fatalf("fig11c rows %d", len(tb.Rows))
	}
	col := func(name string) int {
		for i, h := range tb.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %s", name)
		return -1
	}
	l2l, clrg, wlrg := col("3D L-2-L LRG"), col("3D CLRG"), col("3D WLRG")
	// Input 20 is the last row. Under L-2-L LRG it hoards ~half the
	// output: at least 3x any layer-1 input.
	in20 := atof(t, tb.Rows[4][l2l])
	in3 := atof(t, tb.Rows[0][l2l])
	if in20 < 3*in3 {
		t.Errorf("L-2-L LRG input 20 (%.3f) should dwarf input 3 (%.3f)", in20, in3)
	}
	// CLRG and WLRG equalize: max/min within 15%.
	for _, c := range []int{clrg, wlrg} {
		lo, hi := 1e9, 0.0
		for _, r := range tb.Rows {
			v := atof(t, r[c])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi/lo > 1.15 {
			t.Errorf("column %s spread %.2f, want fair (~1.0)", tb.Header[c], hi/lo)
		}
	}
}

func TestFig12Claims(t *testing.T) {
	tb := mustRun(t, Fig12, QuickOpts())
	if tb.Rows[0][0] != "0.8" {
		t.Fatalf("first pitch %s", tb.Rows[0][0])
	}
	baseA, baseF := atof(t, tb.Rows[0][2]), atof(t, tb.Rows[0][1])
	prevA, prevF := baseA, baseF
	for _, r := range tb.Rows[1:] {
		a, fq := atof(t, r[2]), atof(t, r[1])
		if a < prevA || fq > prevF {
			t.Errorf("pitch %s: area/freq not monotone", r[0])
		}
		prevA, prevF = a, fq
	}
	// +25% pitch row (1.0 um): small cost.
	if g := atof(t, tb.Rows[1][2])/baseA - 1; g > 0.04 {
		t.Errorf("area growth at 1.0um %.3f, want ~0.017", g)
	}
}

func TestCornerCaseClaim(t *testing.T) {
	tb := mustRun(t, CornerCase, QuickOpts())
	frac := atof(t, tb.Rows[1][2])
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("worst-case fraction %.2f, want ~0.25", frac)
	}
}

func TestDiscussionDerivation(t *testing.T) {
	tb := mustRun(t, Discussion, QuickOpts())
	// Hi-Rise saving over flattened butterfly should be ~58%.
	sav := atof(t, cell(t, tb, "Flattened butterfly (derived)", "vs Hi-Rise"))
	if sav < 0.5 || sav > 0.65 {
		t.Errorf("saving over flattened butterfly %.2f, want ~0.58", sav)
	}
	if sav2d := atof(t, cell(t, tb, "2D Swizzle-Switch", "vs Hi-Rise")); sav2d < 0.3 || sav2d > 0.45 {
		t.Errorf("saving over 2D %.2f, want ~0.38", sav2d)
	}
}

func TestTableVIClaims(t *testing.T) {
	tb := mustRun(t, TableVI, QuickOpts())
	if len(tb.Rows) != 9 { // 8 mixes + average row
		t.Fatalf("table6 rows %d", len(tb.Rows))
	}
	speedups := make([]float64, 8)
	for i := 0; i < 8; i++ {
		speedups[i] = atof(t, tb.Rows[i][2])
		if speedups[i] < 0.97 {
			t.Errorf("%s: Hi-Rise slower than 2D (%.2f)", tb.Rows[i][0], speedups[i])
		}
	}
	avg := atof(t, tb.Rows[8][2])
	if avg < 1.02 || avg > 1.18 {
		t.Errorf("average speedup %.3f, paper reports ~1.08", avg)
	}
	// The highest-MPKI mixes benefit most (paper: Mix7/Mix8 at 1.15-1.16).
	loAvg := (speedups[0] + speedups[1]) / 2
	hiAvg := (speedups[6] + speedups[7]) / 2
	if hiAvg <= loAvg {
		t.Errorf("high-MPKI mixes (%.2f) should gain more than low (%.2f)", hiAvg, loAvg)
	}
}

func TestTableVIAddrClaims(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, TableVIAddr, o)
	if len(tb.Rows) != 9 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	for i := 0; i < 8; i++ {
		catalog, measured := atof(t, tb.Rows[i][1]), atof(t, tb.Rows[i][2])
		if math.Abs(measured-catalog) > 0.25*catalog+1 {
			t.Errorf("%s: measured MPKI %.1f far from catalog %.1f", tb.Rows[i][0], measured, catalog)
		}
		if sp := atof(t, tb.Rows[i][3]); sp < 0.95 {
			t.Errorf("%s: address-mode speedup %.2f", tb.Rows[i][0], sp)
		}
	}
	if avg := atof(t, tb.Rows[8][3]); avg < 1.0 || avg > 1.25 {
		t.Errorf("address-mode average speedup %.3f", avg)
	}
}

func TestTableVIDetailClaims(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, TableVIDetail, o)
	if len(tb.Rows) < 6 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Every application's Hi-Rise IPC should be at least its 2D IPC
	// (within noise), and the system row must reconcile.
	for _, r := range tb.Rows {
		if sp := atof(t, r[4]); sp < 0.93 {
			t.Errorf("%s: speedup %.2f", r[0], sp)
		}
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "system" {
		t.Fatalf("last row %v", last)
	}
}

func TestAblations(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000

	cls := mustRun(t, AblateClasses, o)
	if len(cls.Rows) != 5 {
		t.Fatalf("class rows %d", len(cls.Rows))
	}
	// 3+ classes must be essentially fair on hotspot.
	if j := atof(t, cls.Rows[1][1]); j < 0.95 {
		t.Errorf("3-class Jain %.3f, want ~1", j)
	}

	alloc := mustRun(t, AblateAlloc, o)
	// Priority allocation must beat input binning on the bin-adversarial
	// pattern, where every active input hashes to the same channel.
	bi := -1
	for i, h := range alloc.Header {
		if h == "bin-adversarial" {
			bi = i
		}
	}
	if bi < 0 {
		t.Fatalf("no bin-adversarial column in %v", alloc.Header)
	}
	var pri, inp float64
	for _, r := range alloc.Rows {
		switch r[0] {
		case "priority":
			pri = atof(t, r[bi])
		case "input-binned":
			inp = atof(t, r[bi])
		}
	}
	if pri < 2*inp {
		t.Errorf("priority (%.1f) should far exceed input binning (%.1f) on bin-adversarial traffic", pri, inp)
	}

	vcs := mustRun(t, AblateVCs, o)
	// More VCs should not reduce saturation utilization.
	if one, four := atof(t, vcs.Rows[0][1]), atof(t, vcs.Rows[2][1]); four < one {
		t.Errorf("4 VCs (%.3f) below 1 VC (%.3f)", four, one)
	}

	if b := mustRun(t, AblateBursty, o); len(b.Rows) != 4 {
		t.Errorf("bursty rows %d", len(b.Rows))
	}

	islip := mustRun(t, AblateISLIP, o)
	// iSLIP-1 must show the L-2-L LRG bias (input 20, last row, dwarfs
	// input 3) while CLRG equalizes.
	if in20, in3 := atof(t, islip.Rows[4][2]), atof(t, islip.Rows[0][2]); in20 < 2.5*in3 {
		t.Errorf("iSLIP-1 should be unfair: input20=%.4f input3=%.4f", in20, in3)
	}
	if in20, in3 := atof(t, islip.Rows[4][3]), atof(t, islip.Rows[0][3]); in20 > 1.2*in3 {
		t.Errorf("CLRG should be fair: input20=%.4f input3=%.4f", in20, in3)
	}
}

func TestAblateQoSShares(t *testing.T) {
	tb := mustRun(t, AblateQoS, QuickOpts())
	for _, row := range tb.Rows {
		got, want := atof(t, row[1]), atof(t, row[2])
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%s: share %.3f, want %.3f", row[0], got, want)
		}
	}
}

func TestLocalityClaims(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, Locality, o)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// 1-channel throughput must rise monotonically with locality and
	// reach ~2D at full locality.
	prev := 0.0
	for _, r := range tb.Rows {
		v := atof(t, r[3])
		if v < prev-1 {
			t.Errorf("1-channel throughput fell with locality: %v", tb.Rows)
		}
		prev = v
	}
	last := tb.Rows[4]
	if d2, c1 := atof(t, last[1]), atof(t, last[3]); c1 < 0.93*d2 {
		t.Errorf("at full locality 1-channel (%.1f) should match 2D (%.1f)", c1, d2)
	}
}

func TestBreakdownExperiment(t *testing.T) {
	tb := mustRun(t, CostBreakdown, QuickOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Components must reconcile with Table V's CLRG cycle time: 1/2.2 ns.
	r4 := tb.Rows[2]
	total := atof(t, r4[1]) + atof(t, r4[2]) + atof(t, r4[3]) + atof(t, r4[4])
	if math.Abs(total-1/2.2) > 0.01 {
		t.Errorf("4-channel cycle components sum to %.3f ns, want ~%.3f", total, 1/2.2)
	}
}

func TestCacheMPKIExperiment(t *testing.T) {
	tb := mustRun(t, CacheMPKI, QuickOpts())
	for _, row := range tb.Rows {
		catalog, measured := atof(t, row[1]), atof(t, row[3])
		if math.Abs(measured-catalog) > 0.2*catalog+0.5 {
			t.Errorf("%s: measured MPKI %.1f far from catalog %.1f", row[0], measured, catalog)
		}
	}
}

func TestAblatePacketLength(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, AblatePacketLength, o)
	// Saturation utilization must rise with packet length; latency too.
	for i := 1; i < len(tb.Rows); i++ {
		if atof(t, tb.Rows[i][2]) <= atof(t, tb.Rows[i-1][2]) {
			t.Errorf("utilization should rise with packet length: %v", tb.Rows)
		}
		if atof(t, tb.Rows[i][3]) <= atof(t, tb.Rows[i-1][3]) {
			t.Errorf("latency should rise with packet length: %v", tb.Rows)
		}
	}
}

func TestKilocoreClaims(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 1000, 4000
	tb := mustRun(t, Kilocore, o)
	if len(tb.Rows) != 3 { // Hi-Rise mesh, flattened butterfly, flat mesh
		t.Fatalf("rows %d", len(tb.Rows))
	}
	hops := func(i int) float64 { return atof(t, tb.Rows[i][3]) }
	if hops(0) >= hops(2) {
		t.Errorf("concentrated Hi-Rise mesh (%.2f hops) should beat flat mesh (%.2f)", hops(0), hops(2))
	}
	if hops(1) > 3.01 {
		t.Errorf("flattened butterfly hops %.2f exceed its diameter bound", hops(1))
	}
	if hops(1) >= hops(0) {
		t.Errorf("flattened butterfly (%.2f hops) should beat the Hi-Rise mesh (%.2f)", hops(1), hops(0))
	}
	// Switch-traversal energy per packet: Hi-Rise mesh lowest (the
	// §VI-E power claim), flat mesh worst.
	e := func(i int) float64 { return atof(t, tb.Rows[i][5]) }
	if !(e(0) < e(1) && e(1) < e(2)) {
		t.Errorf("energy ordering broken: hirise %.0f, fbfly %.0f, mesh %.0f", e(0), e(1), e(2))
	}
	// The Fig 13 performance ranking: saturation throughput flat mesh >
	// flattened butterfly > Hi-Rise mesh, and the flattened butterfly
	// has the lowest latency at 1% load.
	tput := func(i int) float64 { return atof(t, tb.Rows[i][6]) }
	if !(tput(2) > tput(1) && tput(1) > tput(0)) {
		t.Errorf("saturation ordering broken: hirise %.1f, fbfly %.1f, mesh %.1f", tput(0), tput(1), tput(2))
	}
	lat := func(i int) float64 { return atof(t, tb.Rows[i][4]) }
	if !(lat(1) < lat(0) && lat(1) < lat(2)) {
		t.Errorf("flattened butterfly latency %.2f ns not the lowest (hirise %.2f, mesh %.2f)", lat(1), lat(0), lat(2))
	}
}
