package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/core"
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
func AblateClasses(o Opts) *Table {
	o = o.norm()
	classCounts := []int{2, 3, 4, 6, 8}
	rows := make([][]string, len(classCounts))
	o.sweep(len(classCounts), func(i int) {
		classes := classCounts[i]
		mk := func() *core.Switch {
			sw, err := core.New(topo.Config{
				Radix: 64, Layers: 4, Channels: 4,
				Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: classes,
			})
			if err != nil {
				panic(err)
			}
			return sw
		}
		sat, err := sim.Run(sim.Config{
			Ctx:     o.Ctx,
			Switch:  mk(),
			Traffic: traffic.Hotspot{Target: 63},
			Load:    1.0,
			Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-classes", i, 0),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		// Contended-but-unsaturated operating point (Fig 11a's region):
		// latency fairness between the hot output's own layer and the
		// remote layers.
		part, err := sim.Run(sim.Config{
			Ctx:     o.Ctx,
			Switch:  mk(),
			Traffic: traffic.Hotspot{Target: 63},
			Load:    0.95 * 0.2 / 64,
			Warmup:  o.Warmup * 4, Measure: o.Measure * 4, Seed: o.seedFor("ablate-classes", i, 1),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		local := stats.Median(part.PerInputLatency[48:])
		remote := stats.Median(part.PerInputLatency[:48])
		rows[i] = []string{
			fmt.Sprintf("%d", classes),
			f(stats.JainIndex(sat.PerInputPackets), 3),
			f(stats.MaxMinRatio(sat.PerInputPackets), 2),
			f(sat.AcceptedPackets, 3),
			f(local/remote, 2),
		}
	})
	return &Table{
		ID:     "ablate-classes",
		Title:  "CLRG class-count sensitivity, hotspot to output 63",
		Header: []string{"Classes", "Jain(saturated)", "Max/min tput", "Total(pkt/cycle)", "Local/remote lat @95%"},
		Rows:   rows,
		Notes: []string{
			"paper uses 3 classes (thermometer {00,01,11}); Jain 1.0 = perfectly fair",
			"steady hotspot is fair for any class count >= 2; short counters matter for burst forgiveness (see ablate-bursty)",
		},
	}
}

// AblateAlloc compares the three channel allocation policies of §III-A
// across traffic patterns, reporting saturation throughput in
// flits/cycle. Priority-based allocation wins on bin-adversarial traffic
// at the cost of serialized channel arbitration in hardware.
func AblateAlloc(o Opts) *Table {
	o = o.norm()
	policies := []topo.AllocPolicy{topo.InputBinned, topo.OutputBinned, topo.PriorityBased}
	cfgFor := func(p topo.AllocPolicy) topo.Config {
		return topo.Config{
			Radix: 64, Layers: 4, Channels: 4,
			Alloc: p, Scheme: topo.CLRG, Classes: 3,
		}
	}
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

	rows := make([][]string, len(policies))
	o.sweep(len(policies), func(pi int) {
		cfg := cfgFor(policies[pi])
		row := []string{policies[pi].String()}
		for pati, pat := range patterns {
			sw, err := core.New(cfg)
			if err != nil {
				panic(err)
			}
			flits, err := sim.SaturationThroughput(sim.Config{
				Ctx:     o.Ctx,
				Switch:  sw,
				Traffic: pat.make(cfg),
				Warmup:  o.Warmup, Measure: o.Measure,
				ConvergeStop: o.ConvergeStop,
				Seed:         o.seedFor("ablate-alloc", pi*len(patterns)+pati, 0),
			})
			if err != nil {
				panic(err)
			}
			row = append(row, f(flits, 1))
		}
		rows[pi] = row
	})
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
	}
}

// AblateVCs sweeps the virtual channel count of the evaluation setup
// (paper §V fixes 4) under uniform random traffic on the CLRG switch.
func AblateVCs(o Opts) *Table {
	o = o.norm()
	vcs := []int{1, 2, 4, 8}
	rows := make([][]string, len(vcs))
	o.sweep(len(vcs), func(i int) {
		d := designHiRise("", 4, topo.CLRG)
		flits, err := sim.SaturationThroughput(sim.Config{
			Ctx:     o.Ctx,
			Switch:  d.NewSwitch(),
			Traffic: traffic.Uniform{Radix: 64},
			VCs:     vcs[i],
			Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-vcs", i, 0),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		low, err := sim.Run(sim.Config{
			Ctx:     o.Ctx,
			Switch:  d.NewSwitch(),
			Traffic: traffic.Uniform{Radix: 64},
			VCs:     vcs[i],
			Load:    0.05,
			Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-vcs", i, 1),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		rows[i] = []string{
			fmt.Sprintf("%d", vcs[i]),
			f(flits/64, 3),
			f(low.AvgLatency, 2),
		}
	})
	return &Table{
		ID:     "ablate-vcs",
		Title:  "Virtual-channel count sensitivity, uniform random, Hi-Rise 4-channel CLRG",
		Header: []string{"VCs", "Saturation util(flits/cyc/port)", "Latency@5% (cycles)"},
		Rows:   rows,
		Notes:  []string{"paper §V uses 4 VCs x 4-flit buffers; 1 VC exposes head-of-line blocking"},
	}
}

// Locality sweeps the intra-layer fraction of the traffic and reports
// saturation throughput in flits/cycle for Hi-Rise at 1 and 4 channels
// against the 2D switch. It quantifies the paper's §VI-E argument that
// layer-aware placement and routing relieve the L2LC bottleneck: at full
// locality Hi-Rise matches 2D even with a single channel per layer pair.
func Locality(o Opts) *Table {
	o = o.norm()
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	designs := []Design{
		design2D(64),
		designHiRise("3D 4-Channel", 4, topo.CLRG),
		designHiRise("3D 1-Channel", 1, topo.CLRG),
	}
	cells := make([][]string, len(designs))
	for di := range cells {
		cells[di] = make([]string, len(fracs))
	}
	o.sweep(len(designs)*len(fracs), func(k int) {
		di, fi := k/len(fracs), k%len(fracs)
		flits, err := sim.SaturationThroughput(sim.Config{
			Ctx:    o.Ctx,
			Switch: designs[di].NewSwitch(),
			Traffic: traffic.LayerMix{
				Cfg:       designHiRise("", 4, topo.CLRG).Cfg,
				LocalFrac: fracs[fi],
			},
			Warmup: o.Warmup, Measure: o.Measure, Seed: o.seedFor("locality", k, 0),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		cells[di][fi] = f(flits, 1)
	})
	rows := make([][]string, len(fracs))
	for fi, frac := range fracs {
		row := []string{f(frac, 2)}
		for di := range designs {
			row = append(row, cells[di][fi])
		}
		rows[fi] = row
	}
	header := []string{"Local fraction"}
	for _, d := range designs {
		header = append(header, d.Name)
	}
	return &Table{
		ID:     "locality",
		Title:  "Saturation throughput (flits/cycle) vs intra-layer traffic fraction",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"layer-aware placement turns the L2LC bottleneck off: at locality 1.0 even 1-channel Hi-Rise matches 2D (paper §VI-E)",
		},
	}
}

// AblateQoS demonstrates the weighted quality-of-service arbitration the
// Swizzle-Switch silicon supports alongside LRG (paper §II, refs
// [11][15]): a 2D crossbar whose per-output arbiters give inputs 0-15
// weight 4, 16-31 weight 2, and the rest weight 1. Under a saturated
// hotspot, delivered bandwidth divides by weight class.
func AblateQoS(o Opts) *Table {
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
	arbs := make([]arb.Arbiter, 64)
	for i := range arbs {
		arbs[i] = arb.NewQoS(weights)
	}
	sw, err := crossbar.NewWithArbiters(64, arbs)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run(sim.Config{
		Ctx:     o.Ctx,
		Switch:  sw,
		Traffic: traffic.Hotspot{Target: 63},
		Load:    1.0,
		Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-qos", 0, 0),
		ConvergeStop: o.ConvergeStop,
	})
	if err != nil {
		panic(err)
	}
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
	}
}

// AblateISLIP demonstrates the paper's §VII related-work observation: a
// single iteration of iSLIP — round-robin pointers at both stages, the
// local pointer advancing only on a final grant — behaves like the
// unfair L-2-L LRG baseline on the adversarial pattern, while CLRG fixes
// it. Per-input throughput of the five adversarial requestors.
func AblateISLIP(o Opts) *Table {
	o = o.norm()
	schemes := []topo.Scheme{topo.L2LLRG, topo.ISLIP1, topo.CLRG}
	inputs := []int{3, 7, 11, 15, 20}
	cols := make([][]float64, len(schemes))
	o.sweep(len(schemes), func(si int) {
		sw, err := core.New(topo.Config{
			Radix: 64, Layers: 4, Channels: 1,
			Alloc: topo.InputBinned, Scheme: schemes[si], Classes: 3,
		})
		if err != nil {
			panic(err)
		}
		res, err := sim.Run(sim.Config{
			Ctx:     o.Ctx,
			Switch:  sw,
			Traffic: traffic.Adversarial(),
			Load:    1.0,
			Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-islip", si, 0),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		col := make([]float64, len(inputs))
		for i, in := range inputs {
			col[i] = res.PerInputPackets[in]
		}
		cols[si] = col
	})
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
	}
}

// AblateBursty probes fairness under bursty hotspot traffic, where short
// CLRG counters are meant to forgive bursts quickly (paper §III-B4
// motivates the short thermometer counter).
func AblateBursty(o Opts) *Table {
	o = o.norm()
	designs := arbitrationDesigns()
	rows := make([][]string, len(designs))
	o.sweep(len(designs), func(di int) {
		d := designs[di]
		res, err := sim.Run(sim.Config{
			Ctx:     o.Ctx,
			Switch:  d.NewSwitch(),
			Traffic: traffic.NewBursty(64, 16),
			Load:    0.3,
			Warmup:  o.Warmup, Measure: o.Measure, Seed: o.seedFor("ablate-bursty", di, 0),
			ConvergeStop: o.ConvergeStop,
		})
		if err != nil {
			panic(err)
		}
		rows[di] = []string{
			d.Name,
			f(res.AcceptedPackets, 2),
			f(res.AvgLatency, 1),
			f(res.P99Latency, 0),
			f(stats.JainIndex(res.PerInputPackets), 3),
		}
	})
	return &Table{
		ID:     "ablate-bursty",
		Title:  "Bursty uniform traffic (mean burst 16 packets) at 0.3 packets/cycle/input",
		Header: []string{"Design", "Tput(pkt/cycle)", "Avg lat(cyc)", "P99 lat(cyc)", "Jain"},
		Rows:   rows,
		Notes:  []string{"bursty traffic is one of the paper's §V synthetic patterns"},
	}
}
