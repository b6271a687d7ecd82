package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// costRows measures each design's full table row, one sweep task per
// design: physical cost from phys plus uniform-random saturation
// throughput from the simulator, seeded from the experiment id.
func costRows(o Opts, id string, designs []Design) ([][]string, error) {
	return sweep(o, len(designs), func(i int) ([]string, error) {
		d := designs[i]
		cost := d.Cost(o.Tech)
		c := o.simConfig(id, i, 0)
		c.Switch, c.Traffic = d.NewSwitch(), traffic.Uniform{Radix: d.Cfg.Radix}
		flits, err := sim.SaturationThroughput(c)
		if err != nil {
			return nil, err
		}
		return []string{
			d.Name,
			d.ConfigString(),
			f(cost.AreaMM2, 3),
			f(cost.FreqGHz, 2),
			f(cost.EnergyPJ, 0),
			f(phys.Tbps(flits, cost, o.Tech), 2),
			fmt.Sprintf("%d", cost.TSVs),
		}, nil
	})
}

var costHeader = []string{"Design", "Configuration", "Area(mm2)", "Freq(GHz)", "E/trans(pJ)", "Tput(Tbps)", "#TSVs"}

// TableI reproduces paper Table I: implementation cost of the 2D versus
// the 3D folded switch at radix 64 (4 layers), under uniform random
// traffic.
func TableI(o Opts) (*Table, error) {
	o = o.norm()
	designs := []Design{design2D(64), designFolded(64, 4)}
	rows, err := costRows(o, "table1", designs)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "table1",
		Title:  "Implementation cost of 2D versus 3D folded switch (64-radix, 4 layers)",
		Header: costHeader,
		Rows:   rows,
		Notes: []string{
			"paper: 2D 0.672mm2/1.69GHz/71pJ/9.24Tbps/0, folded 0.705/1.58/73/8.86/8192",
			"throughput = simulated UR saturation x modeled frequency x 128b",
		},
	}, nil
}

// TableIV reproduces paper Table IV: implementation cost of the 2D,
// folded, and Hi-Rise 1/2/4-channel switches (L-2-L LRG arbitration).
func TableIV(o Opts) (*Table, error) {
	o = o.norm()
	designs := []Design{
		design2D(64),
		designFolded(64, 4),
		designHiRise("3D 4-Channel", 4, topo.L2LLRG),
		designHiRise("3D 2-Channel", 2, topo.L2LLRG),
		designHiRise("3D 1-Channel", 1, topo.L2LLRG),
	}
	rows, err := costRows(o, "table4", designs)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "table4",
		Title:  "Implementation cost of switch configurations (64-radix; 3D switches have 4 layers)",
		Header: costHeader,
		Rows:   rows,
		Notes: []string{
			"paper Tbps: 2D 9.24, folded 8.86, 4-ch 10.97, 2-ch 7.65, 1-ch 4.27",
			"absolute utilization differs from the authors' simulator; ratios are the claim",
		},
	}, nil
}

// TableV reproduces paper Table V: arbitration variants of the 4-channel
// 4-layer switch. WLRG appears with simulated throughput but is flagged
// infeasible, as the paper's table footnote does.
func TableV(o Opts) (*Table, error) {
	o = o.norm()
	designs := []Design{
		design2D(64),
		designHiRise("3D L-2-L LRG", 4, topo.L2LLRG),
		designHiRise("3D CLRG", 4, topo.CLRG),
	}
	rows, err := costRows(o, "table5", designs)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "table5",
		Title:  "Implementation cost of switch arbitration variants (64-radix, 4-channel, 4 layers)",
		Header: costHeader,
		Rows:   rows,
		Notes: []string{
			"paper: L-2-L LRG 2.24GHz/42pJ/10.97Tbps; CLRG 2.2GHz/44pJ/10.65Tbps; same area/TSVs",
			"WLRG not shown as its implementation is infeasible (paper note)",
		},
	}, nil
}

// CornerCase quantifies the paper's §VI-B pathological corner: purely
// inter-layer traffic where the inputs sharing an L2LC target distinct
// outputs, limiting Hi-Rise to ~1/4 of the flat 2D throughput (in
// flits/cycle; frequency does not rescue a structural bottleneck here
// because the comparison is about fabric capacity).
func CornerCase(o Opts) (*Table, error) {
	o = o.norm()
	hr := designHiRise("Hi-Rise 4-ch CLRG", 4, topo.CLRG)
	d2 := design2D(64)
	pattern := traffic.InterLayerWorstCase{Cfg: hr.Cfg}

	designs := []Design{d2, hr}
	flits, err := sweep(o, len(designs), func(i int) (float64, error) {
		c := o.simConfig("corner", i, 0)
		c.Switch, c.Traffic = designs[i].NewSwitch(), pattern
		return sim.SaturationThroughput(c)
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "corner",
		Title:  "Pathological inter-layer-only traffic (paper §VI-B): worst-case L2LC bottleneck",
		Header: []string{"Design", "Accepted(flits/cycle)", "Fraction of 2D"},
		Rows: [][]string{
			{d2.Name, f(flits[0], 2), "1.00"},
			{hr.Name, f(flits[1], 2), f(flits[1]/flits[0], 2)},
		},
		Notes: []string{"paper: throughput can be limited to 1/4th of the flat 2D switch"},
	}, nil
}

// Discussion reproduces the §VI-E topology comparison. The paper quotes
// prior Swizzle-Switch results: the 2D Swizzle-Switch consumes 33% less
// power than a mesh and 28% less than a flattened butterfly; Hi-Rise
// improves a further ~38% over the 2D switch. We model mesh and flattened
// butterfly power by inverting those published ratios from our measured
// 2D energy, then derive the Hi-Rise savings.
func Discussion(o Opts) (*Table, error) {
	o = o.norm()
	tech := o.Tech
	e2d := phys.Flat2D(64, tech).EnergyPJ
	ehr := phys.HiRise(designHiRise("", 4, topo.CLRG).Cfg, tech).EnergyPJ
	mesh := e2d / (1 - 0.33)
	fbfly := e2d / (1 - 0.28)
	return &Table{
		ID:     "discussion",
		Title:  "Topology power comparison (paper §VI-E; mesh/flattened-butterfly derived from published ratios)",
		Header: []string{"Fabric", "E/trans(pJ)", "vs Hi-Rise"},
		Rows: [][]string{
			{"Mesh (derived)", f(mesh, 0), f(1-ehr/mesh, 2)},
			{"Flattened butterfly (derived)", f(fbfly, 0), f(1-ehr/fbfly, 2)},
			{"2D Swizzle-Switch", f(e2d, 0), f(1-ehr/e2d, 2)},
			{"Hi-Rise 4-ch CLRG", f(ehr, 0), "0.00"},
		},
		Notes: []string{
			"paper: ~58% power saving over flattened butterfly, ~38% over 2D Swizzle-Switch",
			"mesh and flattened butterfly are not re-simulated; rows derive from the paper's quoted ratios",
		},
	}, nil
}
