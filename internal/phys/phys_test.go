package phys

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/reprolab/hirise/internal/topo"
)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > relTol {
		t.Errorf("%s = %.4g, want %.4g (off by %.1f%%, tol %.1f%%)",
			name, got, want, rel*100, relTol*100)
	}
}

func hirise(c int, s topo.Scheme) topo.Config {
	return topo.Config{Radix: 64, Layers: 4, Channels: c, Scheme: s, Classes: 3}
}

// TestTableIAnchors checks the 2D and folded rows of paper Table I.
func TestTableIAnchors(t *testing.T) {
	tech := Default32nm()

	d2 := Flat2D(64, tech)
	within(t, "2D area", d2.AreaMM2, 0.672, 0.01)
	within(t, "2D freq", d2.FreqGHz, 1.69, 0.01)
	within(t, "2D energy", d2.EnergyPJ, 71, 0.01)
	if d2.TSVs != 0 {
		t.Errorf("2D TSVs = %d", d2.TSVs)
	}

	fold := Folded(64, 4, tech)
	within(t, "folded area", fold.AreaMM2, 0.705, 0.01)
	within(t, "folded freq", fold.FreqGHz, 1.58, 0.01)
	within(t, "folded energy", fold.EnergyPJ, 73, 0.01)
	if fold.TSVs != 8192 {
		t.Errorf("folded TSVs = %d, want 8192", fold.TSVs)
	}
}

// TestTableIVAnchors checks the Hi-Rise rows of paper Table IV
// (L-2-L LRG arbitration).
func TestTableIVAnchors(t *testing.T) {
	tech := Default32nm()
	cases := []struct {
		channels   int
		area, freq float64
		energy     float64
		tsvs       int
	}{
		{4, 0.451, 2.24, 42, 6144},
		{2, 0.315, 2.46, 39, 3072},
		{1, 0.247, 2.64, 37, 1536},
	}
	for _, c := range cases {
		got := HiRise(hirise(c.channels, topo.L2LLRG), tech)
		within(t, "area", got.AreaMM2, c.area, 0.02)
		within(t, "freq", got.FreqGHz, c.freq, 0.02)
		within(t, "energy", got.EnergyPJ, c.energy, 0.02)
		if got.TSVs != c.tsvs {
			t.Errorf("c=%d TSVs = %d, want %d", c.channels, got.TSVs, c.tsvs)
		}
		if !got.Feasible {
			t.Errorf("c=%d should be feasible", c.channels)
		}
	}
}

// TestTableVAnchors checks the arbitration variants of paper Table V:
// CLRG runs at 2.2 GHz and 44 pJ with no area overhead over L-2-L LRG.
func TestTableVAnchors(t *testing.T) {
	tech := Default32nm()
	lrg := HiRise(hirise(4, topo.L2LLRG), tech)
	clrg := HiRise(hirise(4, topo.CLRG), tech)
	within(t, "CLRG freq", clrg.FreqGHz, 2.2, 0.01)
	within(t, "CLRG energy", clrg.EnergyPJ, 44, 0.01)
	if clrg.AreaMM2 != lrg.AreaMM2 {
		t.Errorf("CLRG area %v != L2L area %v: scheme must not change area",
			clrg.AreaMM2, lrg.AreaMM2)
	}
	if clrg.TSVs != lrg.TSVs {
		t.Error("scheme must not change TSV count")
	}

	wlrg := HiRise(hirise(4, topo.WLRG), tech)
	if wlrg.Feasible {
		t.Error("WLRG must be flagged infeasible (paper Table V omits it)")
	}
}

// TestHeadlineClaims checks the abstract's summary numbers relative to 2D:
// 33% area reduction, 20% latency (cycle time) reduction, 38% energy
// reduction for the 64-radix 4-layer 4-channel CLRG switch.
func TestHeadlineClaims(t *testing.T) {
	tech := Default32nm()
	d2 := Flat2D(64, tech)
	hr := HiRise(hirise(4, topo.CLRG), tech)

	within(t, "area reduction", 1-hr.AreaMM2/d2.AreaMM2, 0.33, 0.05)
	within(t, "cycle-time reduction", 1-hr.CycleNS()/d2.CycleNS(), 0.20, 0.20)
	within(t, "energy reduction", 1-hr.EnergyPJ/d2.EnergyPJ, 0.38, 0.05)
}

// TestFig9aShape checks frequency vs radix: 2D fastest at low radix, every
// 3D configuration faster beyond radix 32, gap widening with radix, and
// channel-multiplicity curves converging at high radix.
func TestFig9aShape(t *testing.T) {
	tech := Default32nm()
	f2 := func(n int) float64 { return Flat2D(n, tech).FreqGHz }
	f3 := func(n, c int) float64 {
		return HiRise(topo.Config{Radix: n, Layers: 4, Channels: c, Scheme: topo.L2LLRG}, tech).FreqGHz
	}

	for _, c := range []int{1, 2, 4} {
		if f2(16) <= f3(16, c) {
			t.Errorf("at radix 16, 2D (%.2f) should beat 3D %d-channel (%.2f)",
				f2(16), c, f3(16, c))
		}
		for _, n := range []int{48, 64, 96, 128} {
			if f3(n, c) <= f2(n) {
				t.Errorf("at radix %d, 3D %d-channel (%.2f) should beat 2D (%.2f)",
					n, c, f3(n, c), f2(n))
			}
		}
	}

	// Gap widens with radix (compare c=4).
	if (f3(128, 4) - f2(128)) <= (f3(48, 4) - f2(48)) {
		t.Error("3D/2D frequency gap should widen with radix")
	}

	// Channel curves converge: relative c=1 vs c=4 spread shrinks.
	spread := func(n int) float64 { return f3(n, 1)/f3(n, 4) - 1 }
	if spread(128) >= spread(16) {
		t.Errorf("channel spread should shrink with radix: %.3f @16 vs %.3f @128",
			spread(16), spread(128))
	}

	// Monotonically decreasing in radix.
	for n := 16; n < 128; n += 16 {
		if f2(n+16) >= f2(n) || f3(n+16, 4) >= f3(n, 4) {
			t.Errorf("frequency should fall with radix at %d", n)
		}
	}
}

// TestFig9bShape checks frequency vs stacked layers: radix 64 peaks at 4
// layers (within the paper's 3-to-5 plateau), smaller radix peaks at fewer
// layers, larger radix at more.
func TestFig9bShape(t *testing.T) {
	tech := Default32nm()
	peak := func(radix int) int {
		best, bestL := 0.0, 0
		for l := 2; l <= 7; l++ {
			f := HiRise(topo.Config{Radix: radix, Layers: l, Channels: 4, Scheme: topo.L2LLRG}, tech).FreqGHz
			if f > best {
				best, bestL = f, l
			}
		}
		return bestL
	}
	p64 := peak(64)
	if p64 < 3 || p64 > 5 {
		t.Errorf("radix-64 peak at %d layers, want 3..5", p64)
	}
	if p48 := peak(48); p48 > p64 {
		t.Errorf("radix-48 peak (%d) should not exceed radix-64 peak (%d)", p48, p64)
	}
	if p128 := peak(128); p128 < p64 {
		t.Errorf("radix-128 peak (%d) should be at least radix-64 peak (%d)", p128, p64)
	}
}

// TestFig9cShape checks energy vs radix: the 3D switch's energy grows at a
// more gradual slope than 2D, so a higher-radix 3D switch is iso-energy
// with a smaller 2D one.
func TestFig9cShape(t *testing.T) {
	tech := Default32nm()
	e2 := func(n int) float64 { return Flat2D(n, tech).EnergyPJ }
	e3 := func(n int) float64 {
		return HiRise(topo.Config{Radix: n, Layers: 4, Channels: 4, Scheme: topo.L2LLRG}, tech).EnergyPJ
	}
	if slope2, slope3 := e2(128)-e2(64), e3(128)-e3(64); slope3 >= slope2 {
		t.Errorf("3D energy slope (%.1f) should be below 2D (%.1f)", slope3, slope2)
	}
	for _, n := range []int{32, 64, 96, 128} {
		if e3(n) >= e2(n) {
			t.Errorf("at radix %d 3D energy (%.1f) should beat 2D (%.1f)", n, e3(n), e2(n))
		}
	}
	// 128-radix 3D should cost no more energy than 64-radix 2D (iso-energy
	// radix extension, paper §VI-A).
	if e3(128) > e2(64) {
		t.Errorf("3D @128 (%.1f pJ) should be iso-energy with 2D @64 (%.1f pJ)", e3(128), e2(64))
	}
}

// TestFig12TSVPitch checks the TSV sensitivity anchors: +25% pitch costs
// only ~1.67% area and ~1.8% frequency, and both trends are monotonic.
func TestFig12TSVPitch(t *testing.T) {
	at := func(pitch float64) Cost {
		tech := Default32nm()
		tech.TSVPitchUM = pitch
		return HiRise(hirise(4, topo.CLRG), tech)
	}
	base, plus25 := at(0.8), at(1.0)

	areaGrow := plus25.AreaMM2/base.AreaMM2 - 1
	if areaGrow < 0.005 || areaGrow > 0.035 {
		t.Errorf("area growth at +25%% pitch = %.2f%%, want ~1.67%%", areaGrow*100)
	}
	freqDrop := 1 - plus25.FreqGHz/base.FreqGHz
	if freqDrop < 0.005 || freqDrop > 0.035 {
		t.Errorf("freq drop at +25%% pitch = %.2f%%, want ~1.8%%", freqDrop*100)
	}

	prev := base
	for _, p := range []float64{1.0, 2.0, 3.0, 4.0, 5.0} {
		cur := at(p)
		if cur.AreaMM2 <= prev.AreaMM2 {
			t.Errorf("area should grow with pitch at %v µm", p)
		}
		if cur.FreqGHz >= prev.FreqGHz {
			t.Errorf("frequency should fall with pitch at %v µm", p)
		}
		prev = cur
	}
	// At 5 µm the switch is still functional and area stays in the same
	// order of magnitude as the paper's Fig 12 axis (~0.45-0.8 mm²).
	if five := at(5.0); five.AreaMM2 > 1.2 || five.FreqGHz < 1.0 {
		t.Errorf("5 µm pitch cost implausible: %+v", five)
	}
}

// TestScalabilityToRadix96 checks the abstract's claim that Hi-Rise
// extends scalability to radix 96 at an operating frequency no worse than
// the radix-64 2D switch.
func TestScalabilityToRadix96(t *testing.T) {
	tech := Default32nm()
	hr96 := HiRise(topo.Config{Radix: 96, Layers: 4, Channels: 4, Scheme: topo.CLRG, Classes: 3}, tech)
	d64 := Flat2D(64, tech)
	if hr96.FreqGHz < d64.FreqGHz {
		t.Errorf("Hi-Rise @96 (%.2f GHz) should match 2D @64 (%.2f GHz)",
			hr96.FreqGHz, d64.FreqGHz)
	}
}

func TestBreakdownSumsToCost(t *testing.T) {
	tech := Default32nm()
	for _, c := range []int{1, 2, 4} {
		for _, scheme := range []topo.Scheme{topo.L2LLRG, topo.CLRG} {
			cfg := hirise(c, scheme)
			b := HiRiseBreakdown(cfg, tech)
			cost := HiRise(cfg, tech)
			within(t, "breakdown cycle", 1/b.CycleNS(), cost.FreqGHz, 1e-12)
			within(t, "breakdown area", b.AreaMM2(), cost.AreaMM2, 1e-12)
			within(t, "breakdown energy", b.EnergyPJ(), cost.EnergyPJ, 1e-12)
		}
	}
}

func TestBreakdownComponentsSane(t *testing.T) {
	b := HiRiseBreakdown(hirise(4, topo.CLRG), Default32nm())
	if b.Phase1NS <= b.Phase2NS {
		t.Errorf("phase 1 (%.3f) should dominate phase 2 (%.3f): the local switch is larger", b.Phase1NS, b.Phase2NS)
	}
	if b.SchemeNS <= 0 || b.SchemeEnergyPJ <= 0 {
		t.Error("CLRG must charge counter-mux delay and energy")
	}
	if b.LocalAreaMM2 <= b.InterAreaMM2 {
		t.Error("local switches should dominate area")
	}
	lrg := HiRiseBreakdown(hirise(4, topo.L2LLRG), Default32nm())
	if lrg.SchemeNS != 0 || lrg.SchemeEnergyPJ != 0 {
		t.Error("L-2-L LRG has no scheme overhead")
	}
}

func TestOfDispatch(t *testing.T) {
	tech := Default32nm()
	flat := Of(topo.Config{Radix: 64, Layers: 1}, tech)
	if flat != Flat2D(64, tech) {
		t.Error("Of should dispatch Layers<=1 to Flat2D")
	}
	hr := Of(hirise(4, topo.CLRG), tech)
	if hr != HiRise(hirise(4, topo.CLRG), tech) {
		t.Error("Of should dispatch Layers>1 to HiRise")
	}
}

func TestThroughputConversions(t *testing.T) {
	tech := Default32nm()
	c := Cost{FreqGHz: 2.0}
	// 10 flits/cycle * 128 bits * 2 GHz = 2.56 Tbps.
	within(t, "Tbps", Tbps(10, c, tech), 2.56, 1e-9)
	within(t, "CycleNS", c.CycleNS(), 0.5, 1e-9)
}

// TestCostPhysicality is a property check over random configurations:
// every cost is positive, larger radix never costs less area or energy,
// and frequency never improves with radix.
func TestCostPhysicality(t *testing.T) {
	if err := quick.Check(func(nRaw, lRaw, cRaw uint8) bool {
		layers := 2 + int(lRaw%6)
		channels := 1 + int(cRaw%4)
		radix := 16 + int(nRaw%112)
		tech := Default32nm()
		cfg := func(n int) topo.Config {
			return topo.Config{Radix: n, Layers: layers, Channels: channels, Scheme: topo.CLRG, Classes: 3}
		}
		a := HiRise(cfg(radix), tech)
		b := HiRise(cfg(radix+layers), tech) // +1 port per layer
		if a.FreqGHz <= 0 || a.AreaMM2 <= 0 || a.EnergyPJ <= 0 {
			return false
		}
		return b.AreaMM2 >= a.AreaMM2 && b.EnergyPJ >= a.EnergyPJ && b.FreqGHz <= a.FreqGHz
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNonDivisibleRadixLayers ensures the Fig 9b sweeps (radix 48/80/128
// over 2..7 layers) do not panic or go non-physical.
func TestNonDivisibleRadixLayers(t *testing.T) {
	tech := Default32nm()
	for _, radix := range []int{48, 64, 80, 128} {
		for l := 2; l <= 7; l++ {
			c := HiRise(topo.Config{Radix: radix, Layers: l, Channels: 4, Scheme: topo.L2LLRG}, tech)
			if c.FreqGHz <= 0 || c.AreaMM2 <= 0 || c.EnergyPJ <= 0 || c.TSVs <= 0 {
				t.Errorf("radix %d layers %d: non-physical cost %+v", radix, l, c)
			}
		}
	}
}
