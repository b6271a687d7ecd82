package fabric

import (
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/traffic"
)

// TestFailSetsNest pins the rank-selection property degradation curves
// rest on: with one seed, the fail-set for K faults is a strict subset
// of the fail-set for any K' > K.
func TestFailSetsNest(t *testing.T) {
	topo := Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	var prevLinks, prevRouters *FaultSet
	for _, k := range []int{1, 2, 4, 8} {
		fl, err := FaultSpec{Seed: 3, FailLinks: k}.Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Links() != k {
			t.Fatalf("asked %d link faults, got %d", k, fl.Links())
		}
		fr, err := FaultSpec{Seed: 3, FailRouters: k}.Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		if prevLinks != nil {
			for i, failed := range prevLinks.link {
				if failed && !fl.link[i] {
					t.Fatalf("link fail-sets not nested at id %d", i)
				}
			}
			for i, failed := range prevRouters.router {
				if failed && !fr.router[i] {
					t.Fatalf("router fail-sets not nested at id %d", i)
				}
			}
		}
		prevLinks, prevRouters = fl, fr
	}
}

// TestFailSetBudgets pins the guardrails: single-lane topologies admit
// no link faults, demand beyond lanes-1 per bundle errors instead of
// silently disconnecting the fabric, and whole-fabric router kills are
// rejected.
func TestFailSetBudgets(t *testing.T) {
	if _, err := (FaultSpec{Seed: 1, FailLinks: 1}).Build(Mesh{W: 3, H: 3, Conc: 2, Lanes: 1}); err == nil {
		t.Fatal("link fault on a 1-lane topology accepted")
	}
	// A 3×3 mesh with 2 lanes has 24 directed logical links and a
	// budget of lanes-1 = 1 lane each.
	topo := Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	if _, err := (FaultSpec{Seed: 1, FailLinks: 24}).Build(topo); err != nil {
		t.Fatalf("budget-respecting fail-set rejected: %v", err)
	}
	if _, err := (FaultSpec{Seed: 1, FailLinks: 25}).Build(topo); err == nil {
		t.Fatal("over-budget link fail-set accepted")
	}
	if _, err := (FaultSpec{Seed: 1, FailRouters: 9}).Build(topo); err == nil {
		t.Fatal("all-routers fail-set accepted")
	}
	if _, err := (FaultSpec{Seed: 1, FailLinks: -1}).Build(topo); err == nil {
		t.Fatal("negative fault count accepted")
	}
	// A set built for one shape must not run on another.
	fs, err := FaultSpec{Seed: 1, FailLinks: 2}.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 2})
	cfg.Faults = fs
	if _, err := Run(cfg); err == nil {
		t.Fatal("fault set from a different topology accepted")
	}
}

// TestLinkFaultsDegradeMonotonically runs the nested link fail-sets at
// a saturating load: delivered throughput must not increase as faults
// grow (within a small whisker for tie-break reshuffling), reroute must
// keep every flow alive (zero dead flows — the bundle budget guarantees
// connectivity), and the checker must stay green throughout.
func TestLinkFaultsDegradeMonotonically(t *testing.T) {
	topo := Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	prev := int64(-1)
	for _, k := range []int{0, 4, 8, 16} {
		fs, err := FaultSpec{Seed: 3, FailLinks: k}.Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(topo)
		cfg.Load = 0.9
		cfg.Measure = 6000
		cfg.Faults = fs
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("FailLinks=%d: %v", k, err)
		}
		if res.DeadFlows != 0 {
			t.Fatalf("FailLinks=%d: %d dead flows despite the bundle budget", k, res.DeadFlows)
		}
		if res.Delivered == 0 {
			t.Fatalf("FailLinks=%d: nothing delivered", k)
		}
		if prev >= 0 && res.Delivered > prev+prev/50 {
			t.Fatalf("FailLinks=%d delivered %d > previous %d: degradation not monotone", k, res.Delivered, prev)
		}
		prev = res.Delivered
	}
}

// TestRouterFaultsRetireDeadFlows fail-stops routers: cores behind them
// go silent, uniform traffic toward them is retired as dead flows, the
// books still close (checker conservation), and the fabric keeps
// serving the surviving pairs.
func TestRouterFaultsRetireDeadFlows(t *testing.T) {
	topo := Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	base := baseConfig(topo)
	base.Load = 0.5
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := FaultSpec{Seed: 7, FailRouters: 2}.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Faults = fs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("router faults silenced the whole fabric")
	}
	if res.Delivered >= healthy.Delivered {
		t.Fatalf("delivered %d with 2 dead routers >= healthy %d", res.Delivered, healthy.Delivered)
	}
	if res.DeadFlows == 0 {
		t.Fatal("uniform traffic toward dead routers produced no dead flows")
	}
}

// TestFaultedRunsStayDeterministic pins that a faulted run reproduces
// exactly, and that hotspot traffic aimed at a core behind a failed
// router drains entirely into dead flows without wedging the fabric.
func TestFaultedRunsStayDeterministic(t *testing.T) {
	topo := Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2}
	fs, err := FaultSpec{Seed: 5, FailLinks: 4, FailRouters: 1}.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(topo)
	cfg.Routing = Valiant
	cfg.Faults = fs
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("faulted run diverged:\n%+v\n%+v", a, b)
	}

	// Aim everything at a core behind the failed router.
	var deadRouter int
	for n := 0; n < topo.Nodes(); n++ {
		if fs.RouterFailed(n) {
			deadRouter = n
			break
		}
	}
	cfg.Traffic = traffic.Hotspot{Target: deadRouter * topo.Conc}
	cfg.Load = 0.8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d packets to a fail-stopped router", res.Delivered)
	}
	if res.DeadFlows == 0 {
		t.Fatal("hotspot at a dead router retired nothing")
	}
}

// TestDeepBuffersUnderFaults saturates faulted fabrics with multi-packet
// VC buffers and the checker on. Rerouting draws candidates from the
// surviving lanes only and dead flows pop mid-buffer, so this is where a
// route memo or credit mirror that misses a buffer change would show:
// the checker compares both against the ground truth every scan, and the
// watchdog turns any resulting wedge into an error.
func TestDeepBuffersUnderFaults(t *testing.T) {
	topos := []struct {
		name string
		topo Topology
	}{
		{"mesh3x3", Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}},
		{"fbfly3x3", FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 2}},
		{"dragonfly5x2", Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2}},
	}
	for _, tc := range topos {
		fs, err := FaultSpec{Seed: 11, FailLinks: 6, FailRouters: 1}.Build(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Routing{Minimal, Valiant} {
			for _, buf := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/%v/buf=%d", tc.name, r, buf), func(t *testing.T) {
					cfg := baseConfig(tc.topo)
					cfg.Routing = r
					cfg.Faults = fs
					cfg.Load = 1.0
					cfg.Warmup, cfg.Measure = 500, 3000
					cfg.VCBufPkts = buf
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Delivered == 0 || res.DeadFlows == 0 {
						t.Fatalf("delivered %d, dead flows %d: want both under a router fault", res.Delivered, res.DeadFlows)
					}
				})
			}
		}
	}
}
