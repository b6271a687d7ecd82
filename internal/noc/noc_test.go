// Package noc holds the network-on-chip tests of the paper's §VI-E
// composition (Fig 13): meshes and flattened butterflies of switches,
// run on the internal/fabric simulator with the kilocore buffer
// discipline — store-and-forward, credit flow control, one 4-packet
// buffer per input, invariant checker on. The package has no code of
// its own; the simulator and topologies live in internal/fabric.
package noc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/pool"
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

// hopsClosedForm runs uniform traffic over t and checks the mean hop
// count against its closed form. A packet's source and destination
// routers are independent and uniform, and every packet traverses one
// switch per link hop plus the destination's. On a W×H mesh one
// dimension's minimal distance |x−x'| averages (W²−1)/(3W) with second
// moment (W²−1)/6, so the mean is (W²−1)/(3W) + (H²−1)/(3H) + 1. A
// flattened butterfly takes one hop per differing coordinate, a
// Bernoulli(1−1/W) step per dimension, so the mean is (1−1/W) + (1−1/H)
// + 1. The tolerance is five standard errors of the per-packet hop
// count over the delivered sample, so a 1×1 mesh must average exactly
// 1. It returns the measured mean.
func hopsClosedForm(t *testing.T, topo fabric.Topology) float64 {
	t.Helper()
	var w, h int
	var dim func(n int) (mean, variance float64)
	switch topo := topo.(type) {
	case fabric.Mesh:
		w, h = topo.W, topo.H
		dim = func(n int) (float64, float64) {
			x := float64(n)
			mean := (x*x - 1) / (3 * x)
			return mean, (x*x-1)/6 - mean*mean
		}
	case fabric.FlattenedButterfly:
		w, h = topo.W, topo.H
		dim = func(n int) (float64, float64) {
			p := 1 - 1/float64(n)
			return p, p * (1 - p)
		}
	default:
		t.Fatalf("no closed form for %T", topo)
	}
	mx, vx := dim(w)
	my, vy := dim(h)
	want := mx + my + 1
	res := run(t, config(topo, 0.05))
	if res.Delivered < 1000 {
		t.Fatalf("%T %dx%d: only %d packets delivered", topo, w, h, res.Delivered)
	}
	tol := 5 * math.Sqrt((vx+vy)/float64(res.Delivered))
	if math.Abs(res.AvgHops-want) > tol {
		t.Errorf("%T %dx%d: avg hops %.4f over %d packets, want %.4f ± %.4f",
			topo, w, h, res.AvgHops, res.Delivered, want, tol)
	}
	return res.AvgHops
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

// TestHopCountMatchesXYRouting: dimension-ordered routing takes the
// minimal Manhattan path, so the mean hop count is the closed form. On
// a 4x1 line with one core per node E|dx| = 1.25, so 2.25 hops; lanes
// do not change path lengths.
func TestHopCountMatchesXYRouting(t *testing.T) {
	for _, m := range []fabric.Mesh{
		smallMesh(4, 1, 1, 1),
		smallMesh(4, 4, 2, 1),
		smallMesh(5, 3, 2, 2),
	} {
		t.Run(fmt.Sprintf("%dx%d", m.W, m.H), func(t *testing.T) { hopsClosedForm(t, m) })
	}
}

func TestLocalTrafficSingleHop(t *testing.T) {
	// A 1x1 mesh is a single switch: every packet takes exactly one hop.
	if got := hopsClosedForm(t, smallMesh(1, 1, 8, 0)); got != 1 {
		t.Errorf("avg hops %.2f, want exactly 1", got)
	}
}

func TestLargerMeshMoreHops(t *testing.T) {
	small := hopsClosedForm(t, smallMesh(2, 2, 2, 1))
	big := hopsClosedForm(t, smallMesh(6, 6, 2, 1))
	if big <= small {
		t.Errorf("6x6 hops %.2f not above 2x2 hops %.2f", big, small)
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
	// is a pure function of the seed, so a two-lane mesh sweep must be
	// identical at any worker count.
	loads := []float64{0.02, 0.05, 0.1, 0.3}
	base := config(smallMesh(3, 3, 2, 2), 0)
	sweep := func(workers int) []fabric.Result {
		res, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (fabric.Result, error) {
			cfg := base
			cfg.Load, cfg.Seed = loads[i], seed
			return fabric.Run(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := sweep(1)
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep diverged at %d workers:\n%+v\n%+v", workers, got, want)
		}
	}
}
