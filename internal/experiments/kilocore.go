package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

func init() { register("kilocore", Kilocore) }

// Kilocore explores the paper's §VI-E/Fig 13 composition: a 2D mesh of
// 3D Hi-Rise switches as the fabric for many-hundred-core systems,
// against a conventional mesh of low-radix 2D switches with the same
// core count. High-radix concentrated nodes cut the hop count enough to
// win on latency despite their slower clock, which is the argument for
// high-radix topologies the paper inherits from [4,5].
func Kilocore(o Opts) (*Table, error) {
	o = o.norm()

	type topology struct {
		name      string
		topo      fabric.Topology
		newSwitch func() sim.Switch
		ghz       float64
	}

	hirise := designHiRise("", 4, topo.CLRG)
	hirisePhys := hirise.Cost(o.Tech)
	lowRadix := design2D(7) // 3 cores + 4 single link ports
	lowPhys := lowRadix.Cost(o.Tech)

	// The flattened butterfly the paper compares against (§VI-E): same
	// 4x4 grid and concentration, but 2D Swizzle-Switch nodes with
	// direct row/column links (radix 48 + 6*2 = 60).
	fbTopo := fabric.FlattenedButterfly{W: 4, H: 4, Conc: 48, Lanes: 2}
	fbPhys := phys.Flat2D(fbTopo.Radix(), o.Tech)

	tops := []topology{
		{
			name:      "4x4 mesh of Hi-Rise 64 (48 cores/node)",
			topo:      fabric.Mesh{W: 4, H: 4, Conc: 48, Lanes: 4},
			newSwitch: hirise.NewSwitch,
			ghz:       hirisePhys.FreqGHz,
		},
		{
			name: "4x4 flattened butterfly of 2D radix-60",
			topo: fbTopo,
			ghz:  fbPhys.FreqGHz,
		},
		{
			name:      "16x16 mesh of 2D radix-7 (3 cores/node)",
			topo:      fabric.Mesh{W: 16, H: 16, Conc: 3, Lanes: 1},
			newSwitch: lowRadix.NewSwitch,
			ghz:       lowPhys.FreqGHz,
		},
	}

	// Each topology runs at 1% load (latency, hops) and fully backlogged
	// (saturation throughput), as independent sweep tasks.
	loads := [2]float64{0.01, 1.0}
	results, err := sweep(o, len(tops)*len(loads), func(k int) (fabric.Result, error) {
		ti, rep := k/len(loads), k%len(loads)
		tp := tops[ti]
		return fabric.Run(fabric.Config{
			Topo:      tp.topo,
			NewSwitch: tp.newSwitch,
			Traffic:   traffic.Uniform{Radix: tp.topo.Nodes() * tp.topo.Concentration()},
			Load:      loads[rep],
			// One 4-packet FIFO per input port: fabric's default of 4
			// single-packet VCs keeps the ranking but costs ~30% more
			// wall time.
			VCs: 1, VCBufPkts: 4,
			Warmup: o.Warmup, Measure: o.Measure,
			Seed:  o.seedFor("kilocore", ti, rep),
			Check: true, Ctx: o.ctx,
		})
	})
	if err != nil {
		return nil, err
	}

	energies := []float64{hirisePhys.EnergyPJ, fbPhys.EnergyPJ, lowPhys.EnergyPJ}
	rows := make([][]string, len(tops))
	for i, tp := range tops {
		low, sat := results[2*i], results[2*i+1]
		// Switch-traversal energy per 4-flit packet: each hop moves 4
		// 128-bit transactions through one switch. Inter-node link wires
		// are not modeled, which favours the low-radix mesh (it has ~3x
		// the hops, each crossing a die-scale link).
		pktEnergy := low.AvgHops * 4 * energies[i]
		rows[i] = []string{
			tp.name,
			fmt.Sprintf("%d", tp.topo.Nodes()*tp.topo.Concentration()),
			f(tp.ghz, 2),
			f(low.AvgHops, 2),
			f(low.AvgLatency/tp.ghz, 2),
			f(pktEnergy, 0),
			f(sat.AcceptedPackets*tp.ghz, 1),
		}
	}
	return &Table{
		ID:     "kilocore",
		Title:  "Mesh-of-Hi-Rise composition for 768 cores (paper §VI-E, Fig 13)",
		Header: []string{"Topology", "Cores", "Node GHz", "Avg hops", "Latency@1% (ns)", "E/pkt switch-only (pJ)", "Sat tput (pkt/ns)"},
		Rows:   rows,
		Notes: []string{
			"concentrated high-radix nodes cut hops and switch energy; the paper's §VI-E power comparison",
			"the flattened butterfly matches Hi-Rise's hop count but pays 2D-Swizzle energy and clock at radix 60 — the paper quotes ~58% power saving and ~13% system speedup for Hi-Rise over it",
			"the flat mesh's higher saturation reflects its 16x node count and the optimistic low-radix clock; link wire energy/latency is unmodeled and would penalize its ~3x hop count further",
			"uniform random traffic over all cores; store-and-forward per hop, credit flow control, one 4-packet buffer per input, checker on",
		},
	}, nil
}
