package fabric

import (
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// TestSaturationTerminates drives every topology × routing combination
// at offered load 1.0 under the adversarial patterns most likely to
// form buffer cycles — a bisection-crossing shift permutation, a random
// permutation, and single-target hotspot — with the invariant checker
// on. The run must terminate (the always-on watchdog turns a real
// deadlock into an error), keep making progress, and close the books:
// injected == delivered + in-flight + dead, with zero dead flows since
// there are no faults. This is the empirical half of the DESIGN.md §25
// deadlock-freedom argument; the VC-band occupancy scans inside the
// checker are the structural half.
func TestSaturationTerminates(t *testing.T) {
	for _, tc := range testTopos() {
		cores := tc.topo.Nodes() * tc.topo.Concentration()
		// Shift by roughly half the endpoints: every mesh packet crosses
		// the bisection; on the dragonfly any non-group-local shift sends
		// every packet over a global link.
		patterns := []struct {
			name string
			tr   sim.Traffic
		}{
			{"shift", traffic.Shift{N: cores, By: cores / 2}},
			{"permutation", traffic.NewRandomPermutation(cores, 99)},
			{"hotspot", traffic.Hotspot{Target: 0}},
		}
		for _, r := range []Routing{Minimal, Valiant} {
			for _, p := range patterns {
				// Deeper buffers widen the cycle window; three packets per
				// VC also means a pop usually exposes a new head, which
				// must not inherit the old head's memoized route.
				for _, buf := range []int{2, 3} {
					name := tc.name + "/" + r.String() + "/" + p.name
					if buf != 2 {
						name += fmt.Sprintf("/buf=%d", buf)
					}
					t.Run(name, func(t *testing.T) {
						cfg := baseConfig(tc.topo)
						cfg.Routing = r
						cfg.Traffic = p.tr
						cfg.Load = 1.0
						cfg.Warmup = 500
						cfg.Measure = 3000
						cfg.VCBufPkts = buf
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if res.Delivered == 0 {
							t.Fatal("no progress under saturation")
						}
						if res.DeadFlows != 0 {
							t.Fatalf("DeadFlows = %d without faults", res.DeadFlows)
						}
					})
				}
			}
		}
	}
	// The paper's Fig 13 router: Hi-Rise switches (radix 64, 4 layers,
	// CLRG) in a concentrated mesh, with the one 4-packet buffer per
	// input the kilocore campaign uses. A full backlog must stay live,
	// drop at the sources, and deliver no more than one packet per
	// PacketFlits+1 cycles per core.
	t.Run("hirise-mesh2x2/min/uniform", func(t *testing.T) {
		mesh := Mesh{W: 2, H: 2, Conc: 48, Lanes: 4}
		cfg := baseConfig(mesh)
		cfg.NewSwitch = func() sim.Switch {
			sw, err := core.New(topo.Default64())
			if err != nil {
				t.Fatal(err)
			}
			return sw
		}
		cfg.Load = 1.0
		cfg.Warmup = 500
		cfg.Measure = 3000
		cfg.PacketFlits, cfg.VCs, cfg.VCBufPkts = 4, 1, 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered == 0 || !res.Saturated() {
			t.Fatalf("full backlog through Hi-Rise routers: %+v", res)
		}
		cores := float64(mesh.Nodes() * mesh.Conc)
		if perCore := res.AcceptedPackets / cores; perCore > 1/float64(cfg.PacketFlits+1) {
			t.Fatalf("per-core rate %.3f above the one-packet-per-%d-cycles bound", perCore, cfg.PacketFlits+1)
		}
	})
}

// TestDragonflyGroupShift pins the dragonfly's hardest minimal-routing
// case — a shift by exactly one group puts every packet on a global
// link — under both routings at load 1.0.
func TestDragonflyGroupShift(t *testing.T) {
	topo := Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 1}
	cores := topo.Nodes() * topo.Conc
	for _, r := range []Routing{Minimal, Valiant} {
		t.Run(r.String(), func(t *testing.T) {
			cfg := baseConfig(topo)
			cfg.Routing = r
			cfg.Traffic = traffic.Shift{N: cores, By: topo.GroupSize * topo.Conc}
			cfg.Load = 1.0
			cfg.Warmup = 500
			cfg.Measure = 3000
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Fatal("no progress under all-global shift")
			}
		})
	}
}
