// Package noc holds the network-on-chip tests of the paper's §VI-E
// composition (Fig 13): meshes and flattened butterflies of switches,
// run on the internal/fabric simulator with the kilocore buffer
// discipline — store-and-forward, credit flow control, one 4-packet
// buffer per input, invariant checker on. The package has no code of
// its own; the simulator and topologies live in internal/fabric.
package noc

import (
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// config is one small network under uniform traffic with kilocore's
// buffers: a single VC of 4 packets per input.
func config(t fabric.Topology, load float64) fabric.Config {
	return fabric.Config{
		Topo:    t,
		Traffic: traffic.Uniform{Radix: t.Nodes() * t.Concentration()},
		Load:    load,
		VCs:     1, VCBufPkts: 4,
		Warmup: 2000, Measure: 8000, Seed: 1,
		Check: true,
	}
}

func smallMesh(w, h, conc, lanes int) fabric.Mesh {
	return fabric.Mesh{W: w, H: h, Conc: conc, Lanes: lanes}
}

func run(t *testing.T, cfg fabric.Config) fabric.Result {
	t.Helper()
	res, err := fabric.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := config(smallMesh(2, 2, 4, 1), 0.02)
	bad.NewSwitch = func() sim.Switch { return crossbar.New(5) } // radix 8 needed
	if _, err := fabric.Run(bad); err == nil {
		t.Error("radix mismatch accepted")
	}
	if _, err := fabric.Run(fabric.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPacketsFlowAcrossMesh(t *testing.T) {
	res := run(t, config(smallMesh(2, 2, 4, 1), 0.02))
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// One traversal is an arbitration cycle plus 4 flit cycles.
	if res.AvgLatency < 5 {
		t.Errorf("latency %.1f below single-hop minimum", res.AvgLatency)
	}
	if res.DroppedInjections > 0 {
		t.Errorf("dropped %d at 2%% load", res.DroppedInjections)
	}
}

func TestHopCountMatchesXYRouting(t *testing.T) {
	// Uniform random on a WxH mesh: expected hops = E[manhattan] + 1
	// (every packet traverses its source node once plus one node per
	// mesh step). For a 4x1 line with 1 core per node, E|dx| over
	// uniform src,dst = 1.25.
	res := run(t, config(smallMesh(4, 1, 1, 1), 0.05))
	want := 1.25 + 1
	if res.AvgHops < want-0.25 || res.AvgHops > want+0.25 {
		t.Errorf("avg hops %.2f, want ~%.2f", res.AvgHops, want)
	}
}

func TestLocalTrafficSingleHop(t *testing.T) {
	// A 1x1 mesh is a single switch: every packet takes exactly one hop.
	res := run(t, config(smallMesh(1, 1, 8, 0), 0.05))
	if res.AvgHops != 1 {
		t.Errorf("avg hops %.2f, want exactly 1", res.AvgHops)
	}
}

func TestLargerMeshMoreHops(t *testing.T) {
	rs := run(t, config(smallMesh(2, 2, 2, 1), 0.02))
	rb := run(t, config(smallMesh(6, 6, 2, 1), 0.02))
	if rb.AvgHops <= rs.AvgHops {
		t.Errorf("6x6 hops %.2f not above 2x2 hops %.2f", rb.AvgHops, rs.AvgHops)
	}
}

func TestHiRiseNodesCompose(t *testing.T) {
	// The Fig 13 topology: mesh nodes are Hi-Rise switches. 2x2 mesh of
	// 64-radix nodes, 48 cores each.
	cfg := config(smallMesh(2, 2, 48, 4), 0.01)
	cfg.NewSwitch = func() sim.Switch {
		sw, err := core.New(topo.Config{
			Radix: 64, Layers: 4, Channels: 4,
			Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	cfg.Warmup, cfg.Measure = 1000, 4000
	res := run(t, cfg)
	if res.Delivered == 0 {
		t.Fatal("no traffic through Hi-Rise mesh")
	}
	if res.AvgHops < 1 || res.AvgHops > 3.2 {
		t.Errorf("avg hops %.2f implausible for 2x2 concentrated mesh", res.AvgHops)
	}
}

func TestBoundedBuffersRespected(t *testing.T) {
	// Run saturated with 2-packet buffers. The checker verifies every
	// checkInterval cycles that each buffer's occupancy plus its
	// outstanding credit reservations stays within the bound, and fails
	// the run otherwise.
	cfg := config(smallMesh(3, 3, 2, 1), 1.0)
	cfg.VCBufPkts = 2
	if res := run(t, cfg); res.Delivered == 0 {
		t.Fatal("credit backpressure deadlocked the mesh")
	}
}

func TestTightBuffersStayLive(t *testing.T) {
	// The minimal buffer size must still make forward progress under
	// full backlog (XY routing is deadlock-free).
	tight := config(smallMesh(4, 4, 2, 1), 1.0)
	tight.VCBufPkts = 1
	res := run(t, tight)
	if res.Delivered == 0 {
		t.Fatal("1-packet buffers deadlocked")
	}
	loose := tight
	loose.VCBufPkts = 16
	res2 := run(t, loose)
	if res2.AcceptedPackets < res.AcceptedPackets {
		t.Errorf("deeper buffers (%.3f pkt/cyc) should not underperform tight ones (%.3f)",
			res2.AcceptedPackets, res.AcceptedPackets)
	}
}

func TestSaturationBoundedByCapacity(t *testing.T) {
	res := run(t, config(smallMesh(2, 2, 4, 1), 1.0))
	// 16 cores cannot each exceed 0.2 packets/cycle delivery.
	if perCore := res.AcceptedPackets / 16; perCore > 0.2 {
		t.Errorf("per-core rate %.3f above physical bound 0.2", perCore)
	}
	if res.DroppedInjections == 0 {
		t.Error("full backlog should drop at source queues")
	}
}

func TestSweepWorkerInvariance(t *testing.T) {
	// Kilo-core sweeps parallelize over load points; the lane tie-break
	// is a pure function of the seed, so results must be identical at
	// any worker count.
	loads := []float64{0.02, 0.05, 0.1, 0.3}
	base := config(smallMesh(3, 3, 2, 2), 0)
	want, err := fabric.LoadSweep(base, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := fabric.LoadSweep(base, loads, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sweep diverged at %d workers, load %v", workers, loads[i])
			}
		}
	}
}
