package hirise_test

import (
	"math"
	"testing"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/pool"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: build a switch, cost it, simulate it.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := hirise.DefaultConfig()
	if cfg.Radix != 64 || cfg.Scheme != hirise.CLRG {
		t.Fatalf("unexpected default config %+v", cfg)
	}
	sw, err := hirise.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cost := hirise.CostOf(cfg, hirise.Tech32nm())
	if math.Abs(cost.FreqGHz-2.2) > 0.05 {
		t.Errorf("CLRG frequency %.2f, want ~2.2", cost.FreqGHz)
	}
	res, err := hirise.Simulate(hirise.SimConfig{
		Switch:  sw,
		Traffic: hirise.UniformTraffic{Radix: cfg.Radix},
		Load:    0.05,
		Warmup:  1000, Measure: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered through facade-built switch")
	}
}

func TestFacadeBaselines(t *testing.T) {
	d2 := hirise.New2D(64)
	fold := hirise.NewFolded(64, 4)
	if d2.Radix() != 64 || fold.Radix() != 64 {
		t.Fatal("baseline radix wrong")
	}
	fc := hirise.FoldedCost(64, 4, hirise.Tech32nm())
	if fc.TSVs != 8192 {
		t.Errorf("folded TSVs %d", fc.TSVs)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := hirise.Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments exposed", len(ids))
	}
	tb, err := hirise.RunExperiment("fig9a", hirise.QuickExperimentOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "fig9a" || len(tb.Rows) == 0 {
		t.Fatalf("bad table %+v", tb)
	}
	if _, err := hirise.RunExperiment("nope", hirise.QuickExperimentOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad := hirise.QuickExperimentOpts()
	bad.Warmup = -5
	if _, err := hirise.RunExperiment("fig10", bad); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestFacadeManycore(t *testing.T) {
	mixes := hirise.Mixes()
	if len(mixes) != 8 {
		t.Fatalf("%d mixes", len(mixes))
	}
	benches, err := mixes[0].Assign(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := hirise.NewSystem(hirise.SystemConfig{
		Warmup: 1000, Measure: 4000, Seed: 1,
	}, hirise.New2D(64), benches)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sys.Run(); err != nil || r.SystemIPC <= 0 {
		t.Fatalf("system made no progress: %+v, %v", r, err)
	}
	if len(hirise.Benchmarks()) < 25 {
		t.Error("benchmark catalog too small")
	}
}

// TestFacadeMesh runs the Fig 13 composition through the facade: a
// concentrated mesh whose routers are Hi-Rise switches, with kilocore's
// one 4-packet buffer per input and the invariant checker on.
func TestFacadeMesh(t *testing.T) {
	topo := hirise.FabricMesh{W: 2, H: 2, Conc: 48, Lanes: 4}
	res, err := hirise.SimulateFabric(hirise.FabricConfig{
		Topo: topo,
		NewSwitch: func() hirise.SimSwitch {
			sw, err := hirise.New(hirise.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return sw
		},
		Traffic: hirise.UniformTraffic{Radix: topo.Nodes() * topo.Conc},
		Load:    0.01,
		VCs:     1, VCBufPkts: 4,
		Warmup: 500, Measure: 2000, Seed: 1,
		Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatalf("Hi-Rise mesh delivered nothing: %+v", res)
	}
}

func TestFacadeAddressMode(t *testing.T) {
	benches, err := hirise.Mixes()[0].Assign(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := hirise.NewSystem(hirise.SystemConfig{
		AddressMode: true,
		L1:          hirise.L1DCache(),
		L2Bank:      hirise.L2BankCache(),
		Warmup:      1000, Measure: 4000, Seed: 1,
	}, hirise.New2D(64), benches)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil || r.AvgL1MPKI <= 0 {
		t.Fatalf("address mode reported no MPKI: %+v, %v", r, err)
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	cfg := hirise.DefaultConfig()
	sw, err := hirise.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cid := cfg.L2LCID(0, 1, 0)
	if err := sw.FailChannel(cid); err != nil {
		t.Fatal(err)
	}
	if !sw.ChannelFailed(cid) {
		t.Fatal("channel not failed through facade")
	}
}

func TestFacadeTraffic(t *testing.T) {
	if len(hirise.AdversarialTraffic().Flows) != 5 {
		t.Error("adversarial pattern should have 5 flows")
	}
	b := hirise.NewBurstyTraffic(64, 8)
	if b.Radix != 64 {
		t.Error("bursty radix")
	}
}

// TestFacadeFabric drives the multi-switch fabric simulator through
// the facade: a single run with the invariant checker on, a faulted
// run that must retire dead flows, and a two-point load sweep.
func TestFacadeFabric(t *testing.T) {
	topo := hirise.FabricMesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	base := hirise.FabricConfig{
		Topo:    topo,
		Routing: hirise.FabricMinimal,
		Traffic: hirise.UniformTraffic{Radix: topo.Nodes() * topo.Conc},
		Load:    0.3,
		Warmup:  500, Measure: 2000, Seed: 1,
		Check: true,
	}
	res, err := hirise.SimulateFabric(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatalf("fabric delivered nothing: %+v", res)
	}

	if _, err := hirise.ParseFabricRouting("valiant"); err != nil {
		t.Fatal(err)
	}
	if _, err := hirise.ParseFabricRouting("bogus"); err == nil {
		t.Fatal("bogus routing accepted")
	}

	faults, err := hirise.FabricFaultSpec{
		Seed: 7, FailLinks: 2, FailRouters: 1,
	}.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	degraded := base
	degraded.Faults = faults
	dres, err := hirise.SimulateFabric(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if dres.DeadFlows == 0 {
		t.Fatalf("router fail-stop severed no flows: %+v", dres)
	}

	loads := []float64{0.1, 0.5}
	sweep, err := pool.Sweep(nil, len(loads), 2, base.Seed, func(i int, seed uint64) (hirise.FabricResult, error) {
		c := base
		c.Load, c.Seed = loads[i], seed
		return hirise.SimulateFabric(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 || sweep[0].Delivered == 0 || sweep[1].Delivered == 0 {
		t.Fatalf("fabric sweep incomplete: %+v", sweep)
	}
}
