package noc

import (
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
)

func smallMesh(w, h, conc, links int) Config {
	radix := conc + 4*links
	return Config{
		MeshW: w, MeshH: h,
		Concentration: conc, LinkPorts: links,
		NewSwitch: func() sim.Switch { return crossbar.New(radix) },
		Warmup:    2000, Measure: 8000, Seed: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := smallMesh(2, 2, 4, 1)
	bad.NewSwitch = func() sim.Switch { return crossbar.New(5) } // wrong radix
	if _, err := New(bad); err == nil {
		t.Error("radix mismatch accepted")
	}
	var zero Config
	if _, err := New(zero); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPacketsFlowAcrossMesh(t *testing.T) {
	n, err := New(smallMesh(2, 2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(0.02)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.AvgLatency < 5 {
		t.Errorf("latency %.1f below single-hop minimum", res.AvgLatency)
	}
	if res.Dropped > 0 {
		t.Errorf("dropped %d at 2%% load", res.Dropped)
	}
}

func TestHopCountMatchesXYRouting(t *testing.T) {
	// Uniform random on a WxH mesh: expected hops = E[manhattan] + 1
	// (every packet traverses its source node once plus one node per
	// mesh step). For a 4x1 line with 1 core per node, E|dx| over
	// uniform src,dst = 1.25.
	cfg := smallMesh(4, 1, 1, 1)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(0.05)
	want := 1.25 + 1
	if res.AvgHops < want-0.25 || res.AvgHops > want+0.25 {
		t.Errorf("avg hops %.2f, want ~%.2f", res.AvgHops, want)
	}
}

func TestLocalTrafficSingleHop(t *testing.T) {
	// A 1x1 mesh is a single switch: every packet takes exactly one hop.
	n, err := New(smallMesh(1, 1, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(0.05)
	if res.AvgHops != 1 {
		t.Errorf("avg hops %.2f, want exactly 1", res.AvgHops)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		n, err := New(smallMesh(3, 3, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		return n.Run(0.05)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestLargerMeshMoreHops(t *testing.T) {
	small, err := New(smallMesh(2, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(smallMesh(6, 6, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rs, rb := small.Run(0.02), big.Run(0.02)
	if rb.AvgHops <= rs.AvgHops {
		t.Errorf("6x6 hops %.2f not above 2x2 hops %.2f", rb.AvgHops, rs.AvgHops)
	}
}

func TestHiRiseNodesCompose(t *testing.T) {
	// The Fig 13 topology: mesh nodes are Hi-Rise switches. 2x2 mesh of
	// 64-radix nodes, 48 cores each.
	cfg := Config{
		MeshW: 2, MeshH: 2,
		Concentration: 48, LinkPorts: 4,
		NewSwitch: func() sim.Switch {
			sw, err := core.New(topo.Config{
				Radix: 64, Layers: 4, Channels: 4,
				Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			return sw
		},
		Warmup: 1000, Measure: 4000, Seed: 1,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(0.01)
	if res.Delivered == 0 {
		t.Fatal("no traffic through Hi-Rise mesh")
	}
	if res.AvgHops < 1 || res.AvgHops > 3.2 {
		t.Errorf("avg hops %.2f implausible for 2x2 concentrated mesh", res.AvgHops)
	}
}

func TestBoundedBuffersRespected(t *testing.T) {
	cfg := smallMesh(3, 3, 2, 1)
	cfg.InputBufferPkts = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run saturated and check every buffer stays within bound at the
	// end of the run (the invariant holds each cycle; sampling the end
	// after heavy load is the observable part).
	res := n.Run(1.0)
	if res.Delivered == 0 {
		t.Fatal("credit backpressure deadlocked the mesh")
	}
	for ni, nd := range n.nodes {
		for p, q := range nd.inQ {
			if len(q) > cfg.InputBufferPkts {
				t.Fatalf("node %d port %d holds %d packets, bound %d", ni, p, len(q), cfg.InputBufferPkts)
			}
			if nd.resv[p] < 0 {
				t.Fatalf("node %d port %d negative credit reservation", ni, p)
			}
		}
	}
}

func TestTightBuffersStayLive(t *testing.T) {
	// The minimal buffer size must still make forward progress under
	// full backlog (XY routing is deadlock-free).
	cfg := smallMesh(4, 4, 2, 1)
	cfg.InputBufferPkts = 1
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1.0)
	if res.Delivered == 0 {
		t.Fatal("1-packet buffers deadlocked")
	}
	loose := smallMesh(4, 4, 2, 1)
	loose.InputBufferPkts = 16
	n2, err := New(loose)
	if err != nil {
		t.Fatal(err)
	}
	res2 := n2.Run(1.0)
	if res2.AcceptedPackets < res.AcceptedPackets {
		t.Errorf("deeper buffers (%.3f pkt/cyc) should not underperform tight ones (%.3f)",
			res2.AcceptedPackets, res.AcceptedPackets)
	}
}

func TestAdaptiveLanesHelpUnderLoad(t *testing.T) {
	// With several lanes per direction, credit-adaptive lane choice
	// should at least match fixed flow hashing at saturation.
	base := smallMesh(3, 3, 4, 4) // radix 20 nodes, 4 lanes per direction
	fixed, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := base
	adaptiveCfg.AdaptiveLanes = true
	adaptive, err := New(adaptiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, ra := fixed.Run(1.0), adaptive.Run(1.0)
	if ra.AcceptedPackets < 0.95*rf.AcceptedPackets {
		t.Errorf("adaptive lanes (%.3f pkt/cyc) clearly below fixed hashing (%.3f)",
			ra.AcceptedPackets, rf.AcceptedPackets)
	}
	if ra.Delivered == 0 {
		t.Fatal("adaptive mesh made no progress")
	}
}

func TestSaturationBoundedByCapacity(t *testing.T) {
	n, err := New(smallMesh(2, 2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1.0)
	// 16 cores cannot each exceed 0.2 packets/cycle delivery.
	if perCore := res.AcceptedPackets / 16; perCore > 0.2 {
		t.Errorf("per-core rate %.3f above physical bound 0.2", perCore)
	}
	if res.Dropped == 0 {
		t.Error("full backlog should drop at source queues")
	}
}

func TestFlowHashSpreadsSameDestAcrossLanes(t *testing.T) {
	// The regression the seed-derived flow hash fixes: hashing on
	// (destCore + hops) pinned every same-destination flow to one lane,
	// so hotspot traffic serialized on 1/Lanes of the bundle capacity.
	// Distinct packets toward the same core must now spread over lanes.
	cfg := smallMesh(2, 1, 2, 4)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	for i := 0; i < 64; i++ {
		pkt := packet{
			destCore: 3, // on the other node
			flow:     uint32(pool.SeedFor(cfg.Seed, 0, uint64(i))),
		}
		lanes[n.pickRoute(0, pkt)] = true
	}
	if len(lanes) < 2 {
		t.Fatalf("64 same-destination flows all picked the same lane %v", lanes)
	}
}

func TestSweepWorkerInvariance(t *testing.T) {
	// Kilo-core sweeps parallelize over load points; the flow hash is a
	// pure function of the seed, so results must be identical at any
	// worker count.
	loads := []float64{0.02, 0.05, 0.1, 0.3}
	sweep := func(workers int) []Result {
		out := make([]Result, len(loads))
		pool.Do(len(loads), workers, func(i int) {
			n, err := New(smallMesh(3, 3, 2, 2))
			if err != nil {
				panic(err)
			}
			out[i] = n.Run(loads[i])
		})
		return out
	}
	want := sweep(1)
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep diverged at %d workers", workers)
		}
	}
}

// TestConcurrentRecorderOnlyObservers runs networks in parallel whose
// observers carry a trace recorder but no metrics registry: per-hop
// histograms must resolve to nothing rather than to shared writable
// state (run it under -race).
func TestConcurrentRecorderOnlyObservers(t *testing.T) {
	loads := []float64{0.05, 0.1, 0.2, 0.3}
	out := make([]Result, len(loads))
	pool.Do(len(loads), 4, func(i int) {
		cfg := smallMesh(3, 3, 2, 1)
		cfg.Obs = &obs.Observer{Trace: obs.NewRecorder(256)}
		n, err := New(cfg)
		if err != nil {
			panic(err)
		}
		out[i] = n.Run(loads[i])
	})
	for i, load := range loads {
		n, err := New(smallMesh(3, 3, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if want := n.Run(load); out[i] != want {
			t.Fatalf("load %v: recorder-only observer perturbed the run:\n%+v\n%+v", load, out[i], want)
		}
	}
}

func TestObsDoesNotPerturbNoc(t *testing.T) {
	run := func(o *obs.Observer) Result {
		cfg := smallMesh(3, 3, 2, 1)
		cfg.Obs = o
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Run(0.05)
	}
	plain := run(nil)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	observed := run(o)
	if plain != observed {
		t.Fatalf("observer perturbed the run:\n%+v\n%+v", plain, observed)
	}
	if o.Counter("noc.packets.delivered").Value() == 0 {
		t.Fatal("noc.packets.delivered counter empty")
	}
	if o.Histogram("noc.latency.cycles", 8, 8192).Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	// 3x3 mesh uniform traffic spans several hop counts; the 2-hop
	// histogram must exist and hold samples.
	if o.Histogram("noc.latency.hops=02", 8, 8192).Count() == 0 {
		t.Fatal("per-hop-count latency histogram empty")
	}
}
