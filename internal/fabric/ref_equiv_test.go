package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// refTraffics returns the fabric table's traffic kinds for a topology:
// uniform, a half-fabric shift, hotspot, and on a dragonfly the
// one-group shift that sends every packet over a global link.
func refTraffics(t Topology) map[string]sim.Traffic {
	cores := t.Nodes() * t.Concentration()
	m := map[string]sim.Traffic{
		"uniform": traffic.Uniform{Radix: cores},
		"shift":   traffic.Shift{N: cores, By: cores / 2},
		"hotspot": traffic.Hotspot{Target: 0},
	}
	if d, ok := t.(Dragonfly); ok {
		m["group-shift"] = traffic.Shift{N: cores, By: d.GroupSize * d.Conc}
	}
	return m
}

// matchReference runs cfg on Run (with the checker on) and on the
// reference loop and fails unless the results are identical.
func matchReference(t *testing.T, name string, cfg Config) {
	t.Helper()
	want, werr := refRun(cfg)
	cfg.Check = true
	got, gerr := Run(cfg)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: reference error %v, Run error %v", name, werr, gerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Run diverged from the reference loop:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestFabricMatchesReference holds Run byte-identical to the reference
// loop on every topology family under minimal and Valiant routing, the
// table's traffics, loads below and above saturation, multi-packet and
// single-VC buffers, link and router fail-sets, a Hi-Rise router (the
// generic arbitration path), and an attached observer.
func TestFabricMatchesReference(t *testing.T) {
	topos := []Topology{
		Mesh{W: 3, H: 3, Conc: 2, Lanes: 1},
		Mesh{W: 4, H: 2, Conc: 2, Lanes: 2},
		FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 1},
		FlattenedButterfly{W: 3, H: 2, Conc: 2, Lanes: 2},
		Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 1},
		Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2},
	}
	for _, tp := range topos {
		for _, r := range []Routing{Minimal, Valiant} {
			for tname, tr := range refTraffics(tp) {
				for _, load := range []float64{0.05, 1.0} {
					cfg := Config{
						Topo: tp, Routing: r, Traffic: tr, Load: load,
						Warmup: 200, Measure: 1000, Seed: 11,
					}
					matchReference(t, fmt.Sprintf("%T%+v/%v/%s/%v", tp, tp, r, tname, load), cfg)
				}
			}
		}
	}

	t.Run("buffers", func(t *testing.T) {
		for _, tp := range topos {
			for _, shape := range [][2]int{{2, 2}, {1, 4}, {3, 1}} {
				vcs, bufs := shape[0], shape[1]
				r := Minimal
				if vcs >= tp.Classes(Valiant) {
					r = Valiant
				}
				cores := tp.Nodes() * tp.Concentration()
				matchReference(t, fmt.Sprintf("%T%+v/vcs=%d/buf=%d", tp, tp, vcs, bufs), Config{
					Topo: tp, Routing: r, Traffic: traffic.Uniform{Radix: cores}, Load: 0.6,
					VCs: vcs, VCBufPkts: bufs, Warmup: 200, Measure: 1000, Seed: 5,
				})
			}
		}
	})

	t.Run("faults", func(t *testing.T) {
		for _, tp := range topos {
			for _, spec := range []FaultSpec{
				{Seed: 3, FailLinks: 2},
				{Seed: 4, FailRouters: 1},
				{Seed: 5, FailLinks: 3, FailRouters: 2},
			} {
				if spec.FailLinks > 0 && tp.LaneCount() < 2 {
					continue
				}
				fs, err := spec.Build(tp)
				if err != nil {
					t.Fatal(err)
				}
				cores := tp.Nodes() * tp.Concentration()
				for _, r := range []Routing{Minimal, Valiant} {
					for _, load := range []float64{0.1, 0.9} {
						matchReference(t, fmt.Sprintf("%T%+v/%+v/%v/%v", tp, tp, spec, r, load), Config{
							Topo: tp, Routing: r, Traffic: traffic.Uniform{Radix: cores}, Load: load,
							VCBufPkts: 2, Faults: fs, Warmup: 200, Measure: 1000, Seed: 9,
						})
					}
				}
			}
		}
	})

	t.Run("hirise-routers", func(t *testing.T) {
		cfg := topo.Default64()
		mesh := Mesh{W: 2, H: 2, Conc: 48, Lanes: 4}
		newSwitch := func() sim.Switch {
			sw, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sw
		}
		for _, load := range []float64{0.01, 1.0} {
			matchReference(t, fmt.Sprintf("hirise/%v", load), Config{
				Topo: mesh, NewSwitch: newSwitch,
				Traffic: traffic.Uniform{Radix: mesh.Nodes() * mesh.Conc}, Load: load,
				VCs: 1, VCBufPkts: 4, Warmup: 100, Measure: 400, Seed: 2,
			})
		}
	})

	t.Run("observed", func(t *testing.T) {
		tp := Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2}
		cores := tp.Nodes() * tp.Conc
		base := Config{
			Topo: tp, Routing: Valiant, Traffic: traffic.Uniform{Radix: cores}, Load: 1.0,
			Warmup: 200, Measure: 1000, Seed: 4,
		}
		want, err := refRun(base)
		if err != nil {
			t.Fatal(err)
		}
		base.Obs = &obs.Observer{
			Metrics: obs.NewRegistry(),
			Trace:   obs.NewRecorder(1 << 12),
			Tele:    tele.NewSampler(64, 0),
		}
		got, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("observed Run diverged from the reference loop:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzFabricMatchesReference drives Run and the reference loop with the
// same fuzzed topology shape, routing, buffering, load, fail-set and
// seed, and requires identical results.
func FuzzFabricMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(3), uint8(2), uint8(1), false, uint8(4), uint8(1), uint8(255), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(2), uint8(2), true, uint8(2), uint8(2), uint8(128), uint8(2), uint8(1), uint64(7))
	f.Add(uint8(2), uint8(5), uint8(2), uint8(2), uint8(2), true, uint8(4), uint8(1), uint8(200), uint8(1), uint8(0), uint64(3))
	f.Add(uint8(0), uint8(2), uint8(2), uint8(4), uint8(4), false, uint8(1), uint8(4), uint8(40), uint8(0), uint8(0), uint64(9))
	f.Fuzz(func(t *testing.T, family, a, b, conc, lanes uint8, valiant bool,
		vcs, bufs, load8, failLinks, failRouters uint8, seed uint64) {
		var tp Topology
		c := 1 + int(conc)%4
		l := 1 + int(lanes)%3
		switch family % 3 {
		case 0:
			tp = Mesh{W: 1 + int(a)%4, H: 1 + int(b)%4, Conc: c, Lanes: l}
			if tp.Nodes() == 1 {
				tp = Mesh{W: 1, H: 1, Conc: c}
			}
		case 1:
			tp = FlattenedButterfly{W: 2 + int(a)%3, H: 1 + int(b)%3, Conc: c, Lanes: l}
		default:
			g := 2 + int(b)%2 // routers per group
			h := 1 + int(a)%2 // global ports per router
			tp = Dragonfly{Groups: g*h + 1, GroupSize: g, GlobalPorts: h, Conc: c, Lanes: l}
		}
		if tp.validate() != nil {
			t.Skip()
		}
		r := Minimal
		if valiant {
			r = Valiant
		}
		cfg := Config{
			Topo: tp, Routing: r,
			Traffic:   traffic.Uniform{Radix: tp.Nodes() * tp.Concentration()},
			Load:      float64(load8) / 255,
			VCs:       1 + int(vcs)%6,
			VCBufPkts: 1 + int(bufs)%3,
			Warmup:    100, Measure: 400, Seed: seed,
		}
		if cfg.VCs < tp.Classes(r) {
			cfg.VCs = tp.Classes(r)
		}
		if failLinks%4 != 0 || failRouters%3 != 0 {
			spec := FaultSpec{Seed: seed, FailRouters: int(failRouters) % 3}
			if tp.LaneCount() >= 2 {
				spec.FailLinks = int(failLinks) % 4
			}
			fs, err := spec.Build(tp)
			if err != nil {
				t.Skip()
			}
			cfg.Faults = fs
		}
		matchReference(t, fmt.Sprintf("%T%+v/%v", tp, tp, r), cfg)
	})
}
