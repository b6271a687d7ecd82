package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/traffic"
)

func init() {
	register("fabric", Fabric)
	register("fabric-degradation", FabricDegradation)
}

// fabricRow is one (topology, routing, traffic) point of the fabric
// campaign. Traffic is built per run from the core count so the same
// row definition serves every geometry.
type fabricRow struct {
	name    string
	topo    fabric.Topology
	routing fabric.Routing
	traffic string // uniform | shift | group-shift | hotspot
}

func fabricTraffic(kind string, topo fabric.Topology) sim.Traffic {
	cores := topo.Nodes() * topo.Concentration()
	switch kind {
	case "uniform":
		return traffic.Uniform{Radix: cores}
	case "shift":
		// Half-fabric shift: every mesh packet crosses the bisection.
		return traffic.Shift{N: cores, By: cores / 2}
	case "group-shift":
		// One-group shift: every dragonfly packet takes a global link —
		// the adversarial case minimal routing admits and Valiant fixes.
		d := topo.(fabric.Dragonfly)
		return traffic.Shift{N: cores, By: d.GroupSize * d.Conc}
	case "hotspot":
		return traffic.Hotspot{Target: 0}
	}
	panic("experiments: unknown fabric traffic " + kind)
}

// fabricRows spans the campaign's fidelity axes: scale (64 to 1024
// endpoints), topology family, and the minimal-vs-Valiant contrast on
// the traffic each topology finds adversarial.
func fabricRows() []fabricRow {
	mesh8 := fabric.Mesh{W: 8, H: 8, Conc: 4, Lanes: 1}                                  // 256 endpoints
	mesh16 := fabric.Mesh{W: 16, H: 16, Conc: 4, Lanes: 1}                               // 1024 endpoints
	fbfly4 := fabric.FlattenedButterfly{W: 4, H: 4, Conc: 4, Lanes: 2}                   // 64 endpoints
	dfly := fabric.Dragonfly{Groups: 9, GroupSize: 4, GlobalPorts: 2, Conc: 2, Lanes: 1} // 72 endpoints
	return []fabricRow{
		{"mesh 8x8x4", mesh8, fabric.Minimal, "uniform"},
		{"mesh 8x8x4", mesh8, fabric.Minimal, "shift"},
		{"mesh 8x8x4", mesh8, fabric.Valiant, "shift"},
		{"mesh 16x16x4", mesh16, fabric.Minimal, "uniform"},
		{"fbfly 4x4x4", fbfly4, fabric.Minimal, "uniform"},
		{"fbfly 4x4x4", fbfly4, fabric.Valiant, "shift"},
		{"dragonfly 9g.4a.2h", dfly, fabric.Minimal, "uniform"},
		{"dragonfly 9g.4a.2h", dfly, fabric.Minimal, "group-shift"},
		{"dragonfly 9g.4a.2h", dfly, fabric.Valiant, "group-shift"},
		{"dragonfly 9g.4a.2h", dfly, fabric.Minimal, "hotspot"},
	}
}

// Fabric sweeps the multi-switch fabric simulator across topologies
// (64-1024 endpoints), routing policies, and traffic patterns: each row
// measures low-load latency and fully-backlogged saturation throughput
// with the invariant checker on — every simulated cycle self-checks
// credit conservation, VC-band occupancy, and flit conservation, and
// the always-on watchdog turns any deadlock into a loud error.
func Fabric(o Opts) (*Table, error) {
	o = o.norm()
	rows := fabricRows()
	// Two tasks per row: k = 2*row is the 10% load point, k+1 the
	// saturated one.
	loads := [2]float64{0.1, 1.0}
	res, err := sweep(o, len(rows)*len(loads), func(k int) (fabric.Result, error) {
		ri, rep := k/len(loads), k%len(loads)
		r := rows[ri]
		return fabric.Run(fabric.Config{
			Topo: r.topo, Routing: r.routing,
			Traffic: fabricTraffic(r.traffic, r.topo),
			Load:    loads[rep],
			Warmup:  o.Warmup, Measure: o.Measure,
			Seed:  o.seedFor("fabric", ri, rep),
			Check: true, Ctx: o.ctx,
		})
	})
	if err != nil {
		return nil, err
	}

	out := make([][]string, len(rows))
	for i, r := range rows {
		cores := float64(r.topo.Nodes() * r.topo.Concentration())
		low, sat := res[2*i], res[2*i+1]
		out[i] = []string{
			r.name,
			fmt.Sprintf("%d", int(cores)),
			r.routing.String(),
			r.traffic,
			f(low.AvgLatency, 1),
			f(low.AvgHops, 2),
			f(sat.AcceptedPackets/cores, 3),
		}
	}
	return &Table{
		ID:     "fabric",
		Title:  "Multi-switch fabric: latency at 10% load and saturation throughput",
		Header: []string{"Fabric", "Cores", "Routing", "Traffic", "Lat@0.1 (cyc)", "Hops@0.1", "Sat tput (pkt/cyc/core)"},
		Rows:   out,
		Notes: []string{
			"every router a full switch; credit-based link flow control, bounded per-VC buffers",
			"invariant checker on for every run: credit or flit conservation violations and deadlocks abort",
			"shift = half-fabric bisection shift; group-shift = one-dragonfly-group shift (all-global traffic)",
			"Valiant trades low-load latency (~2x hops) for adversarial-traffic throughput",
		},
	}, nil
}

// fabricDegradationSteps are the nested (links, routers) fail-set sizes
// of the degradation campaign: link-only rows first (rerouted around,
// zero dead flows), then router fail-stops on top (flows they sever
// retire as dead flows). Rank-based selection makes each row's fail-set
// a superset of the previous row's, so capacity only shrinks down the
// table.
var fabricDegradationSteps = []struct{ links, routers int }{
	{0, 0}, {2, 0}, {4, 0}, {8, 0}, {8, 1}, {8, 2},
}

// fabricDegradationTopos are the degraded fabrics: both run 2 lanes per
// logical link so the per-bundle budget (lanes-1) leaves minimal routes
// connected under every link-only row.
func fabricDegradationTopos() []struct {
	name string
	topo fabric.Topology
} {
	return []struct {
		name string
		topo fabric.Topology
	}{
		{"mesh 4x4x4 (2 lanes)", fabric.Mesh{W: 4, H: 4, Conc: 4, Lanes: 2}},
		{"dragonfly 9g.4a.2h (2 lanes)", fabric.Dragonfly{Groups: 9, GroupSize: 4, GlobalPorts: 2, Conc: 2, Lanes: 2}},
	}
}

// FabricDegradation sweeps nested link/router fail-sets over saturated
// fabrics with the checker on. Link faults reroute onto surviving lanes
// (throughput degrades monotonically, no dead flows); router faults
// sever flows, which retire as dead flows instead of wedging the run.
func FabricDegradation(o Opts) (*Table, error) {
	o = o.norm()
	topos := fabricDegradationTopos()
	steps := fabricDegradationSteps
	cells, err := sweep(o, len(steps)*len(topos), func(k int) (fabric.Result, error) {
		si, ti := k/len(topos), k%len(topos)
		tp := topos[ti]
		var fs *fabric.FaultSet
		if s := steps[si]; s.links > 0 || s.routers > 0 {
			built, err := fabric.FaultSpec{
				Seed: o.Seed, FailLinks: s.links, FailRouters: s.routers,
			}.Build(tp.topo)
			if err != nil {
				return fabric.Result{}, err
			}
			fs = built
		}
		cores := tp.topo.Nodes() * tp.topo.Concentration()
		return fabric.Run(fabric.Config{
			Topo: tp.topo, Routing: fabric.Minimal,
			Traffic: traffic.Uniform{Radix: cores},
			Load:    0.9,
			Warmup:  o.Warmup, Measure: o.Measure,
			// The seed depends on the topology only: every row of a column
			// sees the same offered traffic as well as nested fail-sets.
			Seed:   o.seedFor("fabric-degradation", ti, 0),
			Faults: fs, Check: true, Ctx: o.ctx,
		})
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, len(steps))
	for si, s := range steps {
		row := []string{fmt.Sprintf("%d/%d", s.links, s.routers)}
		for ti := range topos {
			c := cells[si*len(topos)+ti]
			row = append(row, f(c.AcceptedPackets, 2), f(c.P99Latency, 0), fmt.Sprintf("%d", c.DeadFlows))
		}
		rows[si] = row
	}
	header := []string{"Failed links/routers"}
	for _, tp := range topos {
		header = append(header, tp.name+" tput", "p99", "dead")
	}
	return &Table{
		ID:     "fabric-degradation",
		Title:  "Fabric throughput (pkt/cycle) vs nested link/router fail-sets at 90% load",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"rank-based nested fail-sets: each row's failures include the previous row's",
			"link faults stay within the lanes-1 per-bundle budget, so minimal routes reroute around all of them",
			"router fail-stops sever flows; severed packets retire as dead flows instead of deadlocking",
			"invariant checker on for every run",
		},
	}, nil
}
