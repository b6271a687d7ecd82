package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/store"
)

// fabricCLI is the -design fabric mode: a multi-switch interconnect
// where every router is a full switch wired by a pluggable topology
// (mesh, flattened butterfly, dragonfly) with credit-based link flow
// control and minimal or Valiant routing. It shares the windowing,
// sweep, observability, and store plumbing with the other designs but
// has its own traffic construction (destinations are cores of the whole
// fabric, not ports of one switch), its own fault flags (-fail-links,
// -fail-routers), and its own store key kind, so cached single-switch
// results can never collide with fabric ones.
type fabricCLI struct {
	common
	topoName                       string
	nodes                          int
	meshW, meshH                   int
	conc, lanes                    int
	groups, groupSize, globalPorts int
	routingName                    string
	faultSeed                      uint64
	failLinks, failRouters         int
}

// topology resolves the topology flags. -nodes is the convenience
// spelling: square grids take W = H = sqrt(N); the dragonfly geometry
// comes from -groups/-groupsize/-globalports and -nodes, when given,
// must agree with it.
func (fc fabricCLI) topology() (hirise.FabricTopology, error) {
	gridDims := func() (w, h int, err error) {
		w, h = fc.meshW, fc.meshH
		if fc.nodes > 0 {
			s := int(math.Round(math.Sqrt(float64(fc.nodes))))
			if s*s != fc.nodes {
				return 0, 0, fmt.Errorf("-nodes %d is not a square; use -mesh-w and -mesh-h for rectangular grids", fc.nodes)
			}
			w, h = s, s
		}
		return w, h, nil
	}
	switch fc.topoName {
	case "mesh":
		w, h, err := gridDims()
		if err != nil {
			return nil, err
		}
		return hirise.FabricMesh{W: w, H: h, Conc: fc.conc, Lanes: fc.lanes}, nil
	case "fbfly":
		w, h, err := gridDims()
		if err != nil {
			return nil, err
		}
		return hirise.FabricFlattenedButterfly{W: w, H: h, Conc: fc.conc, Lanes: fc.lanes}, nil
	case "dragonfly":
		d := hirise.FabricDragonfly{
			Groups: fc.groups, GroupSize: fc.groupSize, GlobalPorts: fc.globalPorts,
			Conc: fc.conc, Lanes: fc.lanes,
		}
		if fc.nodes > 0 && fc.nodes != d.Nodes() {
			return nil, fmt.Errorf("-nodes %d contradicts the dragonfly geometry (%d groups x %d routers = %d)",
				fc.nodes, fc.groups, fc.groupSize, d.Nodes())
		}
		return d, nil
	}
	return nil, fmt.Errorf("unknown fabric topology %q: want mesh | fbfly | dragonfly", fc.topoName)
}

// makeTraffic builds the offered pattern over the fabric's cores. The
// shift pattern moves every flow by half the fabric (mesh bisection
// worst case) — the adversarial counterpart Valiant routing exists for.
func (fc fabricCLI) makeTraffic(cores int) (hirise.TrafficPattern, error) {
	switch fc.sp.Traffic {
	case "uniform":
		return hirise.UniformTraffic{Radix: cores}, nil
	case "hotspot":
		if fc.sp.Target < 0 || fc.sp.Target >= cores {
			return nil, fmt.Errorf("-target %d outside the fabric's %d cores", fc.sp.Target, cores)
		}
		return hirise.HotspotTraffic{Target: fc.sp.Target}, nil
	case "permutation":
		return hirise.NewPermutationTraffic(cores, fc.sp.Seed), nil
	case "shift":
		return hirise.ShiftTraffic{N: cores, By: cores / 2}, nil
	}
	return nil, fmt.Errorf("fabric traffic %q: want uniform | hotspot | permutation | shift", fc.sp.Traffic)
}

// base assembles the validated fabric configuration at load 0; Run
// validates the rest (VC/class fit, switch radix, fault compatibility).
func (fc fabricCLI) base(ctx context.Context) (hirise.FabricConfig, error) {
	topo, err := fc.topology()
	if err != nil {
		return hirise.FabricConfig{}, err
	}
	routing, err := hirise.ParseFabricRouting(fc.routingName)
	if err != nil {
		return hirise.FabricConfig{}, err
	}
	traf, err := fc.makeTraffic(topo.Nodes() * topo.Concentration())
	if err != nil {
		return hirise.FabricConfig{}, err
	}
	cfg := hirise.FabricConfig{
		Topo: topo, Routing: routing, Traffic: traf,
		PacketFlits: fc.sp.Flits, VCs: fc.sp.VCs,
		Warmup: fc.sp.Warmup, Measure: fc.sp.Measure, Seed: fc.sp.Seed,
		Check: fc.check, Ctx: ctx,
	}
	if fc.failLinks > 0 || fc.failRouters > 0 {
		fseed := fc.faultSeed
		if fseed == 0 {
			fseed = fc.sp.Seed
		}
		fs, err := hirise.FabricFaultSpec{
			Seed: fseed, FailLinks: fc.failLinks, FailRouters: fc.failRouters,
		}.Build(topo)
		if err != nil {
			return hirise.FabricConfig{}, err
		}
		cfg.Faults = fs
	}
	return cfg, nil
}

// describe renders the topology for the report header.
func (fc fabricCLI) describe(topo hirise.FabricTopology) string {
	switch t := topo.(type) {
	case hirise.FabricMesh:
		return fmt.Sprintf("mesh %dx%d", t.W, t.H)
	case hirise.FabricFlattenedButterfly:
		return fmt.Sprintf("fbfly %dx%d", t.W, t.H)
	case hirise.FabricDragonfly:
		return fmt.Sprintf("dragonfly g%d a%d h%d", t.Groups, t.GroupSize, t.GlobalPorts)
	}
	return fc.topoName
}

// runSingle simulates one load and prints the fabric report to w.
func (fc fabricCLI) runSingle(ctx context.Context, w io.Writer) error {
	cfg, err := fc.base(ctx)
	if err != nil {
		return err
	}
	cfg.Load = fc.load
	res, _, err := observed(fc.common, func(o *hirise.Observer) (hirise.FabricResult, error) {
		cfg.Obs = o
		return hirise.SimulateFabric(cfg)
	})
	if err != nil {
		return err
	}

	topo := cfg.Topo
	cores := topo.Nodes() * topo.Concentration()
	fmt.Fprintf(w, "design      fabric %s, conc %d, lanes %d (%d routers, %d cores, radix %d)\n",
		fc.describe(topo), topo.Concentration(), topo.LaneCount(), topo.Nodes(), cores, topo.Radix())
	fmt.Fprintf(w, "routing     %s, %d VCs over %d deadlock class(es)\n",
		cfg.Routing, cfg.VCs, topo.Classes(cfg.Routing))
	fmt.Fprintf(w, "traffic     %s @ %.4f packets/cycle/core\n", fc.sp.Traffic, fc.load)
	fmt.Fprintf(w, "accepted    %.4f packets/cycle/core (%.3f fabric-wide)\n",
		res.AcceptedPackets/float64(cores), res.AcceptedPackets)
	fmt.Fprintf(w, "latency     avg %.1f cycles, p50 %.0f, p99 %.0f, avg hops %.2f\n",
		res.AvgLatency, res.P50Latency, res.P99Latency, res.AvgHops)
	fmt.Fprintf(w, "packets     injected %d, delivered %d, dropped-at-source %d%s\n",
		res.Injected, res.Delivered, res.DroppedInjections,
		map[bool]string{true: "  (saturated)", false: ""}[res.Saturated()])
	if fs := cfg.Faults; fs != nil {
		fmt.Fprintf(w, "faults      %d link lanes, %d routers failed; dead flows %d\n",
			fs.Links(), fs.Routers(), res.DeadFlows)
	}
	return nil
}

// runSweep simulates every load and prints the fabric sweep table to w.
func (fc fabricCLI) runSweep(ctx context.Context, w io.Writer) error {
	base, err := fc.base(ctx)
	if err != nil {
		return err
	}
	results, err := observedSweep(ctx, fc.common, base.Seed, func() string {
		return fmt.Sprintf("%d sweep points in flight", len(fc.loads))
	}, func(i int, seed uint64, o *hirise.Observer) (hirise.FabricResult, error) {
		c := base
		c.Load, c.Seed, c.Obs = fc.loads[i], seed, o
		return hirise.SimulateFabric(c)
	})
	if err != nil {
		return err
	}
	cores := float64(base.Topo.Nodes() * base.Topo.Concentration())
	withFaults := base.Faults != nil
	fmt.Fprintf(w, "%-14s %-14s %-10s %-8s %-6s %s", "load(pkt/cyc)", "tput(pkt/cyc)", "lat(cyc)", "p99(cyc)", "hops", "state")
	if withFaults {
		fmt.Fprintf(w, "      dead")
	}
	fmt.Fprintln(w)
	for i, res := range results {
		state := "ok"
		if res.Saturated() {
			state = "saturated"
		}
		fmt.Fprintf(w, "%-14.4f %-14.4f %-10.2f %-8.0f %-6.2f %s",
			fc.loads[i], res.AcceptedPackets/cores, res.AvgLatency, res.P99Latency, res.AvgHops, state)
		if withFaults {
			fmt.Fprintf(w, "%*s %d", 9-len(state), "", res.DeadFlows)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// storeKey derives the content-addressed result key of this fabric run.
// The kind "fabric-sim" namespaces it away from the single-switch "sim"
// and "voq-sim" keys.
func (fc fabricCLI) storeKey(st *store.Store) (store.Key, error) {
	return st.KeyOf("fabric-sim", struct {
		Topo, Routing, Traffic         string
		Nodes, MeshW, MeshH            int
		Conc, Lanes                    int
		Groups, GroupSize, GlobalPorts int
		VCs, Flits, Target             int
		Load                           float64
		Loads                          []float64
		Warmup, Measure                int64
		Seed, FaultSeed                uint64
		FailLinks, FailRouters         int
		Check                          bool
	}{
		fc.topoName, fc.routingName, fc.sp.Traffic,
		fc.nodes, fc.meshW, fc.meshH,
		fc.conc, fc.lanes,
		fc.groups, fc.groupSize, fc.globalPorts,
		fc.sp.VCs, fc.sp.Flits, fc.sp.Target,
		fc.load,
		fc.loads,
		fc.sp.Warmup, fc.sp.Measure,
		fc.sp.Seed, fc.faultSeed,
		fc.failLinks, fc.failRouters,
		fc.check,
	})
}
