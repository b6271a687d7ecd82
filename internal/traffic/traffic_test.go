package traffic

import (
	"math"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

func rate(t *testing.T, next func(rng *prng.Source) bool, draws int) float64 {
	t.Helper()
	rng := prng.New(7)
	hits := 0
	for i := 0; i < draws; i++ {
		if next(rng) {
			hits++
		}
	}
	return float64(hits) / float64(draws)
}

func TestUniformRateAndSpread(t *testing.T) {
	u := Uniform{Radix: 16}
	rng := prng.New(3)
	counts := make([]int, 16)
	injected := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if d, ok := u.Next(0, int64(i), 0.25, rng); ok {
			counts[d]++
			injected++
		}
	}
	if r := float64(injected) / draws; math.Abs(r-0.25) > 0.01 {
		t.Errorf("injection rate %v, want 0.25", r)
	}
	expect := float64(injected) / 16
	for d, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("dest %d: count %d, expect ~%.0f", d, c, expect)
		}
	}
}

func TestHotspotAlwaysTargets(t *testing.T) {
	h := Hotspot{Target: 63}
	rng := prng.New(1)
	for i := 0; i < 1000; i++ {
		if d, ok := h.Next(i%64, int64(i), 1, rng); !ok || d != 63 {
			t.Fatalf("dest %d ok %v", d, ok)
		}
	}
}

func TestFixedOnlyActiveInputs(t *testing.T) {
	f := Adversarial()
	rng := prng.New(1)
	for in := 0; in < 64; in++ {
		d, ok := f.Next(in, 0, 1, rng)
		_, active := f.Flows[in]
		if ok != active {
			t.Errorf("input %d: ok=%v, active=%v", in, ok, active)
		}
		if ok && d != 63 {
			t.Errorf("input %d: dest %d, want 63", in, d)
		}
	}
}

func TestBurstyLongRunRate(t *testing.T) {
	for _, load := range []float64{0.1, 0.3, 0.6} {
		b := NewBursty(8, 8)
		rng := prng.New(11)
		hits := 0
		const draws = 200000
		for i := 0; i < draws; i++ {
			if _, ok := b.Next(0, int64(i), load, rng); ok {
				hits++
			}
		}
		if r := float64(hits) / draws; math.Abs(r-load) > 0.03 {
			t.Errorf("load %v: long-run rate %v", load, r)
		}
	}
}

func TestBurstyIsActuallyBursty(t *testing.T) {
	// At the same average load, consecutive-injection runs must be far
	// longer than Bernoulli would produce.
	b := NewBursty(8, 16)
	rng := prng.New(2)
	run, maxRun := 0, 0
	for i := 0; i < 100000; i++ {
		if _, ok := b.Next(0, int64(i), 0.2, rng); ok {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 16 {
		t.Errorf("max burst %d, expected long bursts", maxRun)
	}
}

func TestBurstyEdgeLoads(t *testing.T) {
	b := NewBursty(8, 8)
	rng := prng.New(1)
	if _, ok := b.Next(0, 0, 0, rng); ok {
		t.Error("load 0 injected")
	}
	if _, ok := b.Next(0, 0, 1, rng); !ok {
		t.Error("load 1 did not inject")
	}
}

func TestPermutationFixedDest(t *testing.T) {
	p := NewRandomPermutation(16, 42)
	rng := prng.New(1)
	first := make(map[int]int)
	for round := 0; round < 3; round++ {
		for in := 0; in < 16; in++ {
			d, ok := p.Next(in, 0, 1, rng)
			if !ok {
				t.Fatal("load 1 did not inject")
			}
			if prev, seen := first[in]; seen && prev != d {
				t.Fatalf("input %d: dest changed %d -> %d", in, prev, d)
			}
			first[in] = d
		}
	}
	seen := make(map[int]bool)
	for _, d := range first {
		if seen[d] {
			t.Fatal("permutation has duplicate destination")
		}
		seen[d] = true
	}
}

func TestBitReverse(t *testing.T) {
	b := BitReverse{Radix: 8}
	rng := prng.New(1)
	want := map[int]int{0: 0, 1: 4, 2: 2, 3: 6, 4: 1, 5: 5, 6: 3, 7: 7}
	for in, exp := range want {
		if d, ok := b.Next(in, 0, 1, rng); !ok || d != exp {
			t.Errorf("input %d -> %d, want %d", in, d, exp)
		}
	}
}

func TestInterLayerWorstCaseGeometry(t *testing.T) {
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4}
	w := InterLayerWorstCase{Cfg: cfg}
	rng := prng.New(1)
	for in := 0; in < 64; in++ {
		d, ok := w.Next(in, 0, 1, rng)
		if !ok {
			t.Fatal("no injection at load 1")
		}
		if cfg.LayerOf(d) == cfg.LayerOf(in) {
			t.Errorf("input %d -> %d stayed on layer", in, d)
		}
		if cfg.LocalIndex(d) != cfg.LocalIndex(in) {
			t.Errorf("input %d -> %d changed local index", in, d)
		}
	}
	// Inputs sharing a channel under input binning must request distinct
	// outputs — that is what makes the corner pathological.
	d0, _ := w.Next(0, 0, 1, rng)
	d4, _ := w.Next(4, 0, 1, rng)
	if d0 == d4 {
		t.Error("bin-sharing inputs got the same destination")
	}
}

func TestLayerMixFraction(t *testing.T) {
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4}
	for _, frac := range []float64{0, 0.5, 1} {
		w := LayerMix{Cfg: cfg, LocalFrac: frac}
		rng := prng.New(13)
		local, total := 0, 0
		for i := 0; i < 20000; i++ {
			in := rng.Intn(64)
			d, ok := w.Next(in, 0, 1, rng)
			if !ok {
				t.Fatal("no injection at load 1")
			}
			total++
			if cfg.LayerOf(d) == cfg.LayerOf(in) {
				local++
			}
		}
		// Non-local traffic is uniform over all 64 outputs, so 1/4 of it
		// lands on the source layer anyway.
		want := frac + (1-frac)*0.25
		if got := float64(local) / float64(total); math.Abs(got-want) > 0.02 {
			t.Errorf("frac %v: local share %.3f, want %.3f", frac, got, want)
		}
	}
}

func TestBinAdversarialOnlyBinZero(t *testing.T) {
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4}
	w := BinAdversarial{Cfg: cfg}
	rng := prng.New(3)
	for in := 0; in < 64; in++ {
		d, ok := w.Next(in, 0, 1, rng)
		wantActive := cfg.LocalIndex(in)%cfg.Channels == 0
		if ok != wantActive {
			t.Errorf("input %d: active=%v, want %v", in, ok, wantActive)
		}
		if ok && cfg.LayerOf(d) == cfg.LayerOf(in) {
			t.Errorf("input %d stayed on its layer", in)
		}
	}
}

func TestLayerLocalStaysOnLayer(t *testing.T) {
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4}
	w := LayerLocal{Cfg: cfg}
	rng := prng.New(9)
	for i := 0; i < 2000; i++ {
		in := rng.Intn(64)
		d, ok := w.Next(in, 0, 1, rng)
		if !ok {
			t.Fatal("no injection at load 1")
		}
		if cfg.LayerOf(d) != cfg.LayerOf(in) {
			t.Fatalf("input %d -> %d left its layer", in, d)
		}
	}
}

func TestZeroLoadNeverInjects(t *testing.T) {
	rng := prng.New(4)
	gens := []interface {
		Next(int, int64, float64, *prng.Source) (int, bool)
	}{
		Uniform{Radix: 8}, Hotspot{Target: 1}, Adversarial(),
		NewRandomPermutation(8, 1), BitReverse{Radix: 8},
	}
	for _, g := range gens {
		for i := 0; i < 100; i++ {
			if _, ok := g.Next(3, int64(i), 0, rng); ok {
				t.Errorf("%T injected at load 0", g)
			}
		}
	}
}

// TestUniformDrawMatchesNext pins UniformDraw's contract: from the same
// PRNG state it returns Uniform.Next's destination and verdict and
// leaves the PRNG in the same state, for power-of-two and other radices
// and for loads at, between and beyond the Bernoulli edges (NaN too).
// Random draws almost never land on the acceptance boundary, so the
// threshold is also checked against Float64's rule there: the largest
// accepted 53-bit draw is below the load, the smallest rejected one is
// not.
func TestUniformDrawMatchesNext(t *testing.T) {
	loads := []float64{-1, 0, 1e-300, 0.05, 0.3, 0.5, 1 - 1e-16, math.Nextafter(1, 0), 1, 2, math.NaN()}
	for _, load := range loads {
		if !(load > 0 && load < 1) {
			continue
		}
		k := NewUniformDraw(Uniform{Radix: 8}, load).thresh
		if !(float64(k-1)/(1<<53) < load) || float64(k)/(1<<53) < load {
			t.Errorf("load %v: threshold %d is not the first 53-bit draw Float64 rejects", load, k)
		}
	}
	for _, radix := range []int{1, 2, 7, 8, 63, 64, 100, 1024} {
		for _, load := range loads {
			u := Uniform{Radix: radix}
			d := NewUniformDraw(u, load)
			a, b := prng.New(uint64(radix)), prng.New(uint64(radix))
			for i := 0; i < 2000; i++ {
				wantDest, wantOK := u.Next(0, 0, load, a)
				gotDest, gotOK := d.Next(b)
				if gotDest != wantDest || gotOK != wantOK {
					t.Fatalf("radix %d load %v draw %d: UniformDraw (%d, %v), Uniform.Next (%d, %v)",
						radix, load, i, gotDest, gotOK, wantDest, wantOK)
				}
				if *a != *b {
					t.Fatalf("radix %d load %v draw %d: PRNG streams diverged", radix, load, i)
				}
			}
		}
	}
}
