package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

func hirise(t testing.TB, channels int, scheme topo.Scheme) *core.Switch {
	t.Helper()
	s, err := core.New(topo.Config{
		Radix: 64, Layers: 4, Channels: channels,
		Alloc: topo.InputBinned, Scheme: scheme, Classes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t testing.TB, cfg Config) Result {
	t.Helper()
	if cfg.Warmup == 0 {
		cfg.Warmup = 3000
	}
	if cfg.Measure == 0 {
		cfg.Measure = 15000
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestZeroLoadLatencyIsPipelineDepth(t *testing.T) {
	// At very low load a packet sees: inject, arbitrate next cycle, then
	// 4 flit cycles -> 5 cycles end to end.
	r := run(t, Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    0.001,
	})
	if math.Abs(r.AvgLatency-5) > 0.2 {
		t.Errorf("zero-load latency %.2f cycles, want ~5", r.AvgLatency)
	}
}

func TestPermutationReachesPeakUtilization(t *testing.T) {
	// A permutation is contention-free on a flat crossbar; each port must
	// sustain PacketFlits/(PacketFlits+1) = 0.8 flits/cycle.
	r := run(t, Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.NewRandomPermutation(64, 9),
		Load:    1.0,
	})
	perPort := r.AcceptedFlits / 64
	if math.Abs(perPort-0.8) > 0.01 {
		t.Errorf("per-port utilization %.3f, want 0.8", perPort)
	}
}

func TestUniformSaturation2D(t *testing.T) {
	// Uniform random on the 2D switch: output contention keeps saturation
	// meaningfully below peak but well above half.
	flits, err := SaturationThroughput(Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.Uniform{Radix: 64},
		Warmup:  3000, Measure: 15000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if util := flits / 64; util < 0.5 || util > 0.8 {
		t.Errorf("2D UR saturation utilization %.3f, want in (0.5, 0.8)", util)
	}
}

func TestChannelMultiplicityOrdersThroughput(t *testing.T) {
	// Paper Table IV: UR saturation rises with channel multiplicity, and
	// 1-channel is bottlenecked near its L2LC bound of 0.25 flits/cycle
	// per port.
	sat := func(c int) float64 {
		flits, err := SaturationThroughput(Config{
			Switch:  hirise(t, c, topo.L2LLRG),
			Traffic: traffic.Uniform{Radix: 64},
			Warmup:  3000, Measure: 15000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return flits / 64
	}
	u1, u2, u4 := sat(1), sat(2), sat(4)
	if !(u1 < u2 && u2 < u4) {
		t.Fatalf("utilization must grow with channels: %.3f %.3f %.3f", u1, u2, u4)
	}
	if u1 > 0.25 {
		t.Errorf("1-channel utilization %.3f exceeds its L2LC bound 0.25", u1)
	}
	if u4 < 0.5 {
		t.Errorf("4-channel utilization %.3f implausibly low", u4)
	}
}

// TestLoadSweepWorkerInvariance pins the determinism contract of
// LoadSweep: a Hi-Rise switch under stateful bursty traffic, with a
// fresh switch and traffic source per point, returns identical results
// at 1, 2 and 4 workers.
func TestLoadSweepWorkerInvariance(t *testing.T) {
	loads := []float64{0.05, 0.2, 0.5, 1.0}
	base := Config{Warmup: 300, Measure: 1500, Seed: 5}
	newSwitch := func() Switch {
		sw, err := core.New(topo.Config{
			Radix: 16, Layers: 4, Channels: 2,
			Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3,
		})
		if err != nil {
			panic(err)
		}
		return sw
	}
	newTraffic := func() Traffic { return traffic.NewBursty(16, 4) }
	want, err := LoadSweep(base, newSwitch, newTraffic, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := LoadSweep(base, newSwitch, newTraffic, loads, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from serial:\n%+v\n%+v", workers, got, want)
		}
	}
}

func TestLatencyMonotonicInLoad(t *testing.T) {
	results, err := LoadSweep(
		Config{Traffic: traffic.Uniform{Radix: 64}, Warmup: 2000, Measure: 10000},
		func() Switch { return crossbar.New(64) },
		nil,
		[]float64{0.02, 0.06, 0.1},
		0,
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].AvgLatency < results[i-1].AvgLatency-0.3 {
			t.Errorf("latency fell with load: %.2f -> %.2f",
				results[i-1].AvgLatency, results[i].AvgLatency)
		}
	}
}

func TestOfferedMatchesAcceptedBelowSaturation(t *testing.T) {
	r := run(t, Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    0.05,
	})
	if r.Saturated() {
		t.Fatal("saturated at 5% load")
	}
	if math.Abs(r.AcceptedPackets-0.05*64) > 0.05*64*0.05 {
		t.Errorf("accepted %.2f packets/cycle, offered %.2f", r.AcceptedPackets, 0.05*64)
	}
}

func TestSaturationDropsInjections(t *testing.T) {
	r := run(t, Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    1.0,
	})
	if !r.Saturated() {
		t.Error("full backlog should saturate source queues")
	}
}

func TestFlitPacketAccounting(t *testing.T) {
	r := run(t, Config{
		Switch:  crossbar.New(16),
		Traffic: traffic.Uniform{Radix: 16},
		Load:    0.1,
	})
	if got := r.AcceptedFlits / r.AcceptedPackets; math.Abs(got-4) > 1e-9 {
		t.Errorf("flits per packet %.2f, want 4", got)
	}
	if r.Delivered <= 0 {
		t.Error("nothing delivered")
	}
	// Injected and delivered may differ by packets straddling the window
	// boundaries, bounded by what the queues and VCs can hold.
	bound := int64(16 * (64 + 4))
	if diff := r.Injected - r.Delivered; diff > bound || diff < -bound {
		t.Errorf("conservation: %d packets unaccounted", diff)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		return run(t, Config{
			Switch:  hirise(t, 4, topo.CLRG),
			Traffic: traffic.Uniform{Radix: 64},
			Load:    0.2,
			Seed:    77,
			Warmup:  1000, Measure: 5000,
		})
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different results")
	}
	c := run(t, Config{
		Switch:  hirise(t, 4, topo.CLRG),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    0.2,
		Seed:    78,
		Warmup:  1000, Measure: 5000,
	})
	if reflect.DeepEqual(a.Delivered, c.Delivered) && reflect.DeepEqual(a.AvgLatency, c.AvgLatency) {
		t.Error("different seeds produced identical results")
	}
}

func TestInterLayerWorstCaseQuartersThroughput(t *testing.T) {
	// Paper §VI-B: with purely inter-layer traffic where bin-sharing
	// inputs request distinct outputs, Hi-Rise throughput collapses to
	// ~1/4 of the flat 2D switch (c=4, 4 inputs per channel).
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4, Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3}
	pattern := traffic.InterLayerWorstCase{Cfg: cfg}

	hr := run(t, Config{Switch: hirise(t, 4, topo.CLRG), Traffic: pattern, Load: 1.0})
	d2 := run(t, Config{Switch: crossbar.New(64), Traffic: pattern, Load: 1.0})

	ratio := hr.AcceptedFlits / d2.AcceptedFlits
	if ratio < 0.2 || ratio > 0.3 {
		t.Errorf("worst-case ratio %.3f, want ~0.25", ratio)
	}
}

func TestLayerLocalMatches2D(t *testing.T) {
	// Purely intra-layer traffic never touches an L2LC: Hi-Rise behaves
	// like four independent crossbars and at least matches 2D throughput.
	cfg := topo.Config{Radix: 64, Layers: 4, Channels: 4, Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3}
	pattern := traffic.LayerLocal{Cfg: cfg}
	hr := run(t, Config{Switch: hirise(t, 4, topo.CLRG), Traffic: pattern, Load: 1.0})
	d2 := run(t, Config{Switch: crossbar.New(64), Traffic: pattern, Load: 1.0})
	if hr.AcceptedFlits < 0.95*d2.AcceptedFlits {
		t.Errorf("layer-local Hi-Rise %.1f below 2D %.1f", hr.AcceptedFlits, d2.AcceptedFlits)
	}
}

func TestPerInputBreakdownsConsistent(t *testing.T) {
	r := run(t, Config{
		Switch:  crossbar.New(16),
		Traffic: traffic.Uniform{Radix: 16},
		Load:    0.1,
	})
	var sum float64
	for _, p := range r.PerInputPackets {
		sum += p
	}
	if math.Abs(sum-r.AcceptedPackets) > 1e-9 {
		t.Errorf("per-input rates sum %.4f != aggregate %.4f", sum, r.AcceptedPackets)
	}
	if len(r.PerInputLatency) != 16 {
		t.Errorf("per-input latency length %d", len(r.PerInputLatency))
	}
}

func TestQuantilesOrdered(t *testing.T) {
	r := run(t, Config{
		Switch:  crossbar.New(64),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    0.12,
	})
	if !(r.P50Latency <= r.P99Latency) {
		t.Errorf("P50 %.1f > P99 %.1f", r.P50Latency, r.P99Latency)
	}
	if r.AvgLatency < 5 {
		t.Errorf("average latency %.2f below pipeline depth", r.AvgLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Traffic: traffic.Uniform{Radix: 4}}, // no switch
		{Switch: crossbar.New(4)},            // no traffic
		{Switch: crossbar.New(4), Traffic: traffic.Uniform{Radix: 4}, Load: -1},
		{Switch: crossbar.New(4), Traffic: traffic.Uniform{Radix: 4}, Warmup: -1},
		{Switch: crossbar.New(4), Traffic: traffic.Uniform{Radix: 4}, VCs: 65},                         // past the 64-bit VC mask
		{Switch: crossbar.New(4), Traffic: traffic.Uniform{Radix: 4}, PacketFlits: MaxPacketFlits + 1}, // wraps the int32 flit count
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// burstToOutput0 is a closed-form oracle's traffic: at cycle 0, inputs
// 0..k-1 each inject one packet to output 0, and nothing else is ever
// injected.
type burstToOutput0 struct{ k int }

func (b burstToOutput0) Next(in int, cycle int64, _ float64, _ *prng.Source) (int, bool) {
	return 0, cycle == 0 && in < b.k
}

// TestSingleOutputBurstClosedForm is an oracle independent of any
// simulator: k packets injected together toward one output are served
// one connection at a time. Each waits for its VC refill (cycle 0), an
// arbitration cycle, then F data cycles, and the output re-arbitrates
// only after the previous connection's last flit, so the i-th winner
// (i = 1..k) is delivered i·(F+1) cycles after injection and the mean
// latency is exactly (F+1)(k+1)/2 — whatever order the arbiter picks.
func TestSingleOutputBurstClosedForm(t *testing.T) {
	switches := []struct {
		name string
		mk   func() Switch
	}{
		{"crossbar-fast", func() Switch { return crossbar.New(64) }},
		{"folded-fast", func() Switch { return crossbar.NewFolded(64, 4) }},
		{"hirise-clrg-generic", func() Switch { return hirise(t, 4, topo.CLRG) }},
	}
	for _, sw := range switches {
		for _, F := range []int{1, 4, 8} {
			for _, k := range []int{1, 2, 3, 5} {
				cfg := Config{
					Traffic:     burstToOutput0{k},
					Load:        1,
					PacketFlits: F,
					Warmup:      1, Measure: int64(k*(F+1) + 8), Seed: 3,
				}
				// The burst is injected during the 1-cycle warmup, so
				// Injected (a measurement-window count) stays 0.
				want := float64((F+1)*(k+1)) / 2
				check := func(path string, r Result) {
					t.Helper()
					if r.Delivered != int64(k) || r.AvgLatency != want {
						t.Errorf("%s %s F=%d k=%d: delivered %d, mean latency %v; want %d, %v",
							sw.name, path, F, k, r.Delivered, r.AvgLatency, k, want)
					}
				}
				c := cfg
				c.Switch = sw.mk()
				r, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				check("Run", r)
				rs, err := BatchRun(cfg, sw.mk, nil, []uint64{3})
				if err != nil {
					t.Fatal(err)
				}
				check("BatchRun", rs[0])
			}
		}
	}
}

func BenchmarkUniform2D64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Switch:  crossbar.New(64),
			Traffic: traffic.Uniform{Radix: 64},
			Load:    0.2, Warmup: 500, Measure: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformHiRiseCLRG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Switch:  hirise(b, 4, topo.CLRG),
			Traffic: traffic.Uniform{Radix: 64},
			Load:    0.2, Warmup: 500, Measure: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
