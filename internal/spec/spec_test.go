package spec

import (
	"math"
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// TestSweepIsTheAccumulatedRange: Sweep's points are bit-identical to
// the lo += step loop that stored keys and printed tables were made
// with.
func TestSweepIsTheAccumulatedRange(t *testing.T) {
	for _, r := range [][3]float64{
		{0.05, 0.3, 0.05}, {0.1, 0.5, 0.1}, {0, 1, 0.25}, {0.01, 0.5, 0.005}, {0.3, 0.3, 0.1}, {0.1, 1.0, 0.1},
	} {
		var want []float64
		for l := r[0]; l <= r[1]+1e-12; l += r[2] {
			want = append(want, l)
		}
		got, err := Sweep(r[0], r[1], r[2])
		if err != nil {
			t.Fatalf("Sweep%v: %v", r, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Sweep%v = %v, want %v", r, got, want)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Sweep%v[%d] = %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestSweepRejects: ranges that are empty, infinite, non-advancing or
// too long fail before allocating, each with an error naming the range.
func TestSweepRejects(t *testing.T) {
	inf := math.Inf(1)
	for _, r := range [][3]float64{
		{0, 0, 0}, {0.1, 0.2, 0}, {0.1, 0.2, -0.1}, {0.2, 0.1, 0.1}, {-0.1, 0.1, 0.1},
		{0, inf, 0.1}, {0, 1, inf}, {math.NaN(), 1, 0.1}, {0, math.NaN(), 0.1}, {0, 1, math.NaN()},
		{0, 1, 1e-12}, {0, MaxLoads, 1}, {1e17, 1e17, 1}, {1<<53 - 1, 1<<53 + 100, 1},
	} {
		if loads, err := Sweep(r[0], r[1], r[2]); err == nil || !strings.HasPrefix(err.Error(), "spec: sweep ") {
			t.Errorf("Sweep%v = %d loads, %v; want a spec: sweep error", r, len(loads), err)
		}
	}
	if loads, err := Sweep(0, MaxLoads-1, 1); err != nil || len(loads) != MaxLoads {
		t.Errorf("Sweep(0, %d, 1) = %d loads, %v; want %d", MaxLoads-1, len(loads), err, MaxLoads)
	}
}

// TestTrafficStaysOnTheSwitch: whenever TrafficFactory accepts a shape,
// every generated destination is an output of the switch.
func TestTrafficStaysOnTheSwitch(t *testing.T) {
	rng := prng.New(1)
	for name := range patterns {
		for _, radix := range []int{1, 2, 3, 8, 12, 16, 48, 64, 100, 128} {
			for _, layers := range []int{-1, 0, 1, 2, 3, 4} {
				for _, channels := range []int{-1, 0, 1, 2, 4} {
					for _, target := range []int{-1, 0, radix - 1, radix} {
						s := Spec{Traffic: name, Radix: radix, Layers: layers, Channels: channels, Target: target, Burst: 8, Seed: 1}
						mk, err := s.TrafficFactory()
						if err != nil {
							continue
						}
						tr := mk()
						for cycle := int64(0); cycle < 4; cycle++ {
							for in := 0; in < radix; in++ {
								if out, ok := tr.Next(in, cycle, 1, rng); ok && (out < 0 || out >= radix) {
									t.Fatalf("%+v: input %d sent to output %d", s, in, out)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestEveryNameBuilds: each design builds with each scheme, allocation
// and pattern at the defaults, and a misspelt name is rejected.
func TestEveryNameBuilds(t *testing.T) {
	for design := range designs {
		for scheme := range schemes {
			for alloc := range allocs {
				for traffic := range patterns {
					s := Default
					s.Design, s.Scheme, s.Alloc, s.Traffic = design, scheme, alloc, traffic
					mkSwitch, mkTraffic, err := s.Factories()
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", design, scheme, alloc, traffic, err)
					}
					if mkSwitch().Radix() != s.Radix || mkTraffic() == nil {
						t.Fatalf("%s/%s/%s/%s: bad factories", design, scheme, alloc, traffic)
					}
				}
			}
		}
	}
	for _, s := range []Spec{
		{Design: "3d", Scheme: "clrg", Alloc: "input"}, {Design: "hirise", Scheme: "rr", Alloc: "input"},
		{Design: "hirise", Scheme: "clrg", Alloc: "any"},
	} {
		if _, err := s.SwitchFactory(); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%+v: error %v, want an unknown-name error", s, err)
		}
	}
	if _, err := (Spec{Traffic: "shift", Radix: 8}).TrafficFactory(); err == nil || !strings.Contains(err.Error(), `"shift"`) {
		t.Errorf("unknown traffic: error %v, want one naming it", err)
	}
}
