package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// Ablations beyond the paper's figures, probing the design choices the
// paper fixes by heuristic: the CLRG class count (§III-B4 calls it "a
// heuristic that needs to be tuned"), the channel allocation policy
// (§III-A sketches three), and the VC count of the evaluation setup.

// AblateClasses sweeps the CLRG class count and reports hotspot fairness:
// Jain's index and the max/min ratio of per-input throughput under a
// saturated hotspot. The paper found 3 classes sufficient at radix 64.
func AblateClasses(o Opts) (*Table, error) {
	o = o.norm()
	classCounts := []int{2, 3, 4, 6, 8}
	rows, err := sweep(o, len(classCounts), func(i int) ([]string, error) {
		d := designHiRise("", 4, topo.CLRG)
		d.Cfg.Classes = classCounts[i]
		c := o.simConfig("ablate-classes", i, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.Hotspot{Target: 63}, 1.0
		sat, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		// Contended-but-unsaturated operating point (Fig 11a's region):
		// latency fairness between the hot output's own layer and the
		// remote layers.
		c.Switch, c.Load, c.Seed = d.NewSwitch(), 0.95*0.2/64, o.seedFor("ablate-classes", i, 1)
		c.Warmup, c.Measure = o.Warmup*4, o.Measure*4
		part, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		local := stats.Median(part.PerInputLatency[48:])
		remote := stats.Median(part.PerInputLatency[:48])
		return []string{
			fmt.Sprintf("%d", classCounts[i]),
			f(stats.JainIndex(sat.PerInputPackets), 3),
			f(stats.MaxMinRatio(sat.PerInputPackets), 2),
			f(sat.AcceptedPackets, 3),
			f(local/remote, 2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "ablate-classes",
		Title:  "CLRG class-count sensitivity, hotspot to output 63",
		Header: []string{"Classes", "Jain(saturated)", "Max/min tput", "Total(pkt/cycle)", "Local/remote lat @95%"},
		Rows:   rows,
		Notes: []string{
			"paper uses 3 classes (thermometer {00,01,11}); Jain 1.0 = perfectly fair",
			"steady hotspot is fair for any class count >= 2; short counters matter for burst forgiveness (see ablate-bursty)",
		},
	}, nil
}

// AblateAlloc compares the three channel allocation policies of §III-A
// across traffic patterns, reporting saturation throughput in
// flits/cycle. Priority-based allocation wins on bin-adversarial traffic
// at the cost of serialized channel arbitration in hardware.
func AblateAlloc(o Opts) (*Table, error) {
	o = o.norm()
	policies := []topo.AllocPolicy{topo.InputBinned, topo.OutputBinned, topo.PriorityBased}
	patterns := []struct {
		name string
		make func(cfg topo.Config) sim.Traffic
	}{
		{"uniform", func(topo.Config) sim.Traffic { return traffic.Uniform{Radix: 64} }},
		{"inter-layer", func(cfg topo.Config) sim.Traffic { return traffic.InterLayerWorstCase{Cfg: cfg} }},
		{"bin-adversarial", func(cfg topo.Config) sim.Traffic { return traffic.BinAdversarial{Cfg: cfg} }},
		{"hotspot", func(topo.Config) sim.Traffic { return traffic.Hotspot{Target: 63} }},
		{"bit-reverse", func(topo.Config) sim.Traffic { return traffic.BitReverse{Radix: 64} }},
	}

	rows, err := sweep(o, len(policies), func(pi int) ([]string, error) {
		d := designHiRise("", 4, topo.CLRG)
		d.Cfg.Alloc = policies[pi]
		row := []string{policies[pi].String()}
		for pati, pat := range patterns {
			c := o.simConfig("ablate-alloc", pi*len(patterns)+pati, 0)
			c.Switch, c.Traffic = d.NewSwitch(), pat.make(d.Cfg)
			flits, err := sim.SaturationThroughput(c)
			if err != nil {
				return nil, err
			}
			row = append(row, f(flits, 1))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	header := []string{"Allocation"}
	for _, pat := range patterns {
		header = append(header, pat.name)
	}
	return &Table{
		ID:     "ablate-alloc",
		Title:  "Channel allocation policy vs traffic pattern: saturation throughput (flits/cycle)",
		Header: header,
		Rows:   rows,
		Notes:  []string{"priority allocation removes fixed-bin serialization on adversarial inter-layer traffic (paper §III-A)"},
	}, nil
}

// AblateVCs sweeps the virtual channel count of the evaluation setup
// (paper §V fixes 4) under uniform random traffic on the CLRG switch.
func AblateVCs(o Opts) (*Table, error) {
	o = o.norm()
	vcs := []int{1, 2, 4, 8}
	rows, err := sweep(o, len(vcs), func(i int) ([]string, error) {
		d := designHiRise("", 4, topo.CLRG)
		c := o.simConfig("ablate-vcs", i, 0)
		c.Switch, c.Traffic, c.VCs = d.NewSwitch(), traffic.Uniform{Radix: 64}, vcs[i]
		flits, err := sim.SaturationThroughput(c)
		if err != nil {
			return nil, err
		}
		c.Switch, c.Load, c.Seed = d.NewSwitch(), 0.05, o.seedFor("ablate-vcs", i, 1)
		low, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%d", vcs[i]),
			f(flits/64, 3),
			f(low.AvgLatency, 2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "ablate-vcs",
		Title:  "Virtual-channel count sensitivity, uniform random, Hi-Rise 4-channel CLRG",
		Header: []string{"VCs", "Saturation util(flits/cyc/port)", "Latency@5% (cycles)"},
		Rows:   rows,
		Notes:  []string{"paper §V uses 4 VCs x 4-flit buffers; 1 VC exposes head-of-line blocking"},
	}, nil
}

// Locality sweeps the intra-layer fraction of the traffic and reports
// saturation throughput in flits/cycle for Hi-Rise at 1 and 4 channels
// against the 2D switch. It quantifies the paper's §VI-E argument that
// layer-aware placement and routing relieve the L2LC bottleneck: at full
// locality Hi-Rise matches 2D even with a single channel per layer pair.
func Locality(o Opts) (*Table, error) {
	o = o.norm()
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	designs := []Design{
		design2D(64),
		designHiRise("3D 4-Channel", 4, topo.CLRG),
		designHiRise("3D 1-Channel", 1, topo.CLRG),
	}
	cells, err := sweep(o, len(designs)*len(fracs), func(k int) (string, error) {
		c := o.simConfig("locality", k, 0)
		c.Switch = designs[k/len(fracs)].NewSwitch()
		c.Traffic = traffic.LayerMix{Cfg: designHiRise("", 4, topo.CLRG).Cfg, LocalFrac: fracs[k%len(fracs)]}
		flits, err := sim.SaturationThroughput(c)
		return f(flits, 1), err
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "locality",
		Title:  "Saturation throughput (flits/cycle) vs intra-layer traffic fraction",
		Header: designHeader("Local fraction", designs),
		Rows:   byColumn(fracs, cells),
		Notes: []string{
			"layer-aware placement turns the L2LC bottleneck off: at locality 1.0 even 1-channel Hi-Rise matches 2D (paper §VI-E)",
		},
	}, nil
}

// AblateQoS demonstrates the weighted quality-of-service arbitration the
// Swizzle-Switch silicon supports alongside LRG (paper §II, refs
// [11][15]): a 2D crossbar whose per-output arbiters give inputs 0-15
// weight 4, 16-31 weight 2, and the rest weight 1. Under a saturated
// hotspot, delivered bandwidth divides by weight class.
func AblateQoS(o Opts) (*Table, error) {
	o = o.norm()
	weights := make([]int, 64)
	for i := range weights {
		switch {
		case i < 16:
			weights[i] = 4
		case i < 32:
			weights[i] = 2
		default:
			weights[i] = 1
		}
	}
	// One simulation, run as a one-task sweep so it cancels and reports
	// progress like every other runner's.
	results, err := sweep(o, 1, func(int) (sim.Result, error) {
		arbs := make([]arb.Arbiter, 64)
		for i := range arbs {
			arbs[i] = arb.NewQoS(weights)
		}
		sw, err := crossbar.NewWithArbiters(64, arbs)
		if err != nil {
			return sim.Result{}, err
		}
		c := o.simConfig("ablate-qos", 0, 0)
		c.Switch, c.Traffic, c.Load = sw, traffic.Hotspot{Target: 63}, 1.0
		return sim.Run(c)
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	share := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += res.PerInputPackets[i]
		}
		return s / res.AcceptedPackets
	}
	// Aggregate weight is 16*4 + 16*2 + 32*1 = 128.
	rows := [][]string{
		{"weight 4 (inputs 0-15)", f(share(0, 16), 3), "0.500"},
		{"weight 2 (inputs 16-31)", f(share(16, 32), 3), "0.250"},
		{"weight 1 (inputs 32-63)", f(share(32, 64), 3), "0.250"},
	}
	return &Table{
		ID:     "ablate-qos",
		Title:  "Swizzle-Switch QoS arbitration: hotspot bandwidth shares by weight class",
		Header: []string{"Class", "Measured share", "Ideal share"},
		Rows:   rows,
		Notes:  []string{"weighted credits embedded per output, as in the DAC'12 Swizzle-Switch QoS silicon (paper refs [11][15])"},
	}, nil
}

// AblateISLIP demonstrates the paper's §VII related-work observation: a
// single iteration of iSLIP — round-robin pointers at both stages, the
// local pointer advancing only on a final grant — behaves like the
// unfair L-2-L LRG baseline on the adversarial pattern, while CLRG fixes
// it. Per-input throughput of the five adversarial requestors.
func AblateISLIP(o Opts) (*Table, error) {
	o = o.norm()
	schemes := []topo.Scheme{topo.L2LLRG, topo.ISLIP1, topo.CLRG}
	inputs := []int{3, 7, 11, 15, 20}
	cols, err := sweep(o, len(schemes), func(si int) ([]float64, error) {
		c := o.simConfig("ablate-islip", si, 0)
		c.Switch, c.Traffic, c.Load = designHiRise("", 1, schemes[si]).NewSwitch(), traffic.Adversarial(), 1.0
		res, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(inputs))
		for i, in := range inputs {
			col[i] = res.PerInputPackets[in]
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(inputs))
	for i, in := range inputs {
		row := []string{fmt.Sprintf("%d", in)}
		for si := range schemes {
			row = append(row, f(cols[si][i], 4))
		}
		rows[i] = row
	}
	header := []string{"Input"}
	for _, s := range schemes {
		header = append(header, s.String())
	}
	return &Table{
		ID:     "ablate-islip",
		Title:  "Single-iteration iSLIP vs L-2-L LRG vs CLRG, adversarial pattern (pkt/cycle per input)",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"paper §VII: \"a single iteration of iSLIP is similar to the baseline L-2-L LRG and does not solve the fairness issues\"",
		},
	}, nil
}

// AblateBursty probes fairness under bursty hotspot traffic, where short
// CLRG counters are meant to forgive bursts quickly (paper §III-B4
// motivates the short thermometer counter).
func AblateBursty(o Opts) (*Table, error) {
	o = o.norm()
	designs := arbitrationDesigns()
	rows, err := sweep(o, len(designs), func(di int) ([]string, error) {
		d := designs[di]
		c := o.simConfig("ablate-bursty", di, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.NewBursty(64, 16), 0.3
		res, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		return []string{
			d.Name,
			f(res.AcceptedPackets, 2),
			f(res.AvgLatency, 1),
			f(res.P99Latency, 0),
			f(stats.JainIndex(res.PerInputPackets), 3),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "ablate-bursty",
		Title:  "Bursty uniform traffic (mean burst 16 packets) at 0.3 packets/cycle/input",
		Header: []string{"Design", "Tput(pkt/cycle)", "Avg lat(cyc)", "P99 lat(cyc)", "Jain"},
		Rows:   rows,
		Notes:  []string{"bursty traffic is one of the paper's §V synthetic patterns"},
	}, nil
}
