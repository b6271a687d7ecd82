package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// hiriseAt returns a Hi-Rise design at an arbitrary radix/layer count for
// the physical sweeps.
func hiriseAt(radix, layers, channels int, scheme topo.Scheme) Design {
	return Design{
		Name: fmt.Sprintf("3D %d-Channel", channels),
		Spec: "hirise",
		Cfg: topo.Config{
			Radix: radix, Layers: layers, Channels: channels,
			Alloc: topo.InputBinned, Scheme: scheme, Classes: 3,
		},
	}
}

// Fig9a reproduces paper Fig 9(a): operating frequency versus radix for
// the 2D switch and the 4-layer 3D switch at channel multiplicities
// 1, 2, and 4.
func Fig9a(o Opts) (*Table, error) {
	o = o.norm()
	radices := []int{16, 32, 48, 64, 80, 96, 112, 128}
	rows, err := sweep(o, len(radices), func(i int) ([]string, error) {
		n := radices[i]
		return []string{
			fmt.Sprintf("%d", n),
			f(phys.Flat2D(n, o.Tech).FreqGHz, 2),
			f(hiriseAt(n, 4, 4, topo.L2LLRG).Cost(o.Tech).FreqGHz, 2),
			f(hiriseAt(n, 4, 2, topo.L2LLRG).Cost(o.Tech).FreqGHz, 2),
			f(hiriseAt(n, 4, 1, topo.L2LLRG).Cost(o.Tech).FreqGHz, 2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig9a",
		Title:  "Frequency (GHz) vs radix, 4-layer 3D switch",
		Header: []string{"Radix", "2D", "3D 4-Ch", "3D 2-Ch", "3D 1-Ch"},
		Rows:   rows,
		Notes:  []string{"paper: 2D fastest at low radix; beyond radix 32 all 3D variants are faster, gap widening"},
	}, nil
}

// Fig9b reproduces paper Fig 9(b): frequency versus number of stacked
// silicon layers for radices 48, 64, 80, and 128 (4-channel).
func Fig9b(o Opts) (*Table, error) {
	o = o.norm()
	rows, err := sweep(o, 6, func(i int) ([]string, error) {
		layers := i + 2
		row := []string{fmt.Sprintf("%d", layers)}
		for _, radix := range []int{48, 64, 80, 128} {
			row = append(row, f(hiriseAt(radix, layers, 4, topo.L2LLRG).Cost(o.Tech).FreqGHz, 2))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig9b",
		Title:  "Frequency (GHz) vs number of silicon layers (4-channel)",
		Header: []string{"Layers", "Radix 48", "Radix 64", "Radix 80", "Radix 128"},
		Rows:   rows,
		Notes:  []string{"paper: radix-64 peaks at 3-5 layers; smaller radix peaks earlier, larger later"},
	}, nil
}

// Fig9c reproduces paper Fig 9(c): energy per 128-bit transaction versus
// radix.
func Fig9c(o Opts) (*Table, error) {
	o = o.norm()
	radices := []int{16, 32, 48, 64, 80, 96, 112, 128}
	rows, err := sweep(o, len(radices), func(i int) ([]string, error) {
		n := radices[i]
		return []string{
			fmt.Sprintf("%d", n),
			f(phys.Flat2D(n, o.Tech).EnergyPJ, 1),
			f(hiriseAt(n, 4, 4, topo.L2LLRG).Cost(o.Tech).EnergyPJ, 1),
			f(hiriseAt(n, 4, 2, topo.L2LLRG).Cost(o.Tech).EnergyPJ, 1),
			f(hiriseAt(n, 4, 1, topo.L2LLRG).Cost(o.Tech).EnergyPJ, 1),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig9c",
		Title:  "Energy per 128-bit transaction (pJ) vs radix",
		Header: []string{"Radix", "2D", "3D 4-Ch", "3D 2-Ch", "3D 1-Ch"},
		Rows:   rows,
		Notes:  []string{"paper: 3D energy grows at a more gradual slope than 2D"},
	}, nil
}

// fig10Designs are the latency-curve configurations of paper Fig 10.
func fig10Designs() []Design {
	return []Design{
		design2D(64),
		designHiRise("3D 4-Channel", 4, topo.L2LLRG),
		designHiRise("3D 2-Channel", 2, topo.L2LLRG),
		designHiRise("3D 1-Channel", 1, topo.L2LLRG),
		designFolded(64, 4),
	}
}

// Fig10 reproduces paper Fig 10: average packet latency (ns) versus load
// rate (packets/input/ns) under uniform random traffic for the 2D,
// Hi-Rise multi-channel, and folded configurations. Loads a design cannot
// sustain print as "sat".
func Fig10(o Opts) (*Table, error) {
	o = o.norm()
	loads := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35}
	designs := fig10Designs()

	// One pool task per (design, load) point: the sweep parallelizes
	// across the whole grid, and each point draws its own derived seed.
	cells, err := sweep(o, len(designs)*len(loads), func(k int) (string, error) {
		d := designs[k/len(loads)]
		cost := d.Cost(o.Tech)
		c := o.simConfig("fig10", k, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.Uniform{Radix: d.Cfg.Radix}, loads[k%len(loads)]/cost.FreqGHz
		res, err := sim.Run(c)
		if err != nil {
			return "", err
		}
		if res.Saturated() {
			return "sat", nil
		}
		return f(res.AvgLatency*cost.CycleNS(), 2), nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig10",
		Title:  "Latency (ns) vs load, uniform random traffic",
		Header: designHeader("Load(pkt/in/ns)", designs),
		Rows:   byColumn(loads, cells),
		Notes: []string{
			"\"sat\" marks loads past that design's saturation point",
			"paper: 1-channel saturates first; 3D zero-load latency ~20% below 2D",
		},
	}, nil
}

// arbitrationDesigns are the four schemes compared in paper Fig 11. The
// WLRG row simulates faithfully but reports CLRG-equivalent timing, as
// the paper's figures do (its hardware is infeasible).
func arbitrationDesigns() []Design {
	return []Design{
		design2D(64),
		designHiRise("3D L-2-L LRG", 4, topo.L2LLRG),
		designHiRise("3D WLRG", 4, topo.WLRG),
		designHiRise("3D CLRG", 4, topo.CLRG),
	}
}

// Fig11a reproduces paper Fig 11(a): per-input average latency (cycles)
// under hotspot traffic — every input requesting output 63 — at 80% of
// the hotspot saturation load. L-2-L LRG starves the hot output's local
// layer; CLRG and WLRG equalize it.
func Fig11a(o Opts) (*Table, error) {
	o = o.norm()
	designs := arbitrationDesigns()
	// One output accepts 1 packet per PacketFlits+1 cycles = 0.2
	// packets/cycle aggregate. The paper loads the hotspot at 80% of
	// saturation; our simulator's queueing onset sits later, so we use
	// 95% of the hot output's capacity to reach the same contended
	// operating region Fig 11(a) shows.
	const load = 0.95 * 0.2 / 64

	lat, err := sweep(o, len(designs), func(di int) ([]float64, error) {
		c := o.simConfig("fig11a", di, 0)
		c.Switch, c.Traffic, c.Load = designs[di].NewSwitch(), traffic.Hotspot{Target: 63}, load
		c.Warmup, c.Measure = o.Warmup*4, o.Measure*4
		res, err := sim.Run(c)
		return res.PerInputLatency, err
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, 64)
	for in := 0; in < 64; in++ {
		row := []string{fmt.Sprintf("%d", in)}
		for di := range designs {
			row = append(row, f(lat[di][in], 0))
		}
		rows[in] = row
	}
	t := &Table{
		ID:     "fig11a",
		Title:  "Per-input latency (cycles), hotspot to output 63 @ 95% of the hot output's capacity",
		Header: designHeader("Input", designs),
		Rows:   rows,
	}
	for di, d := range designs {
		local := stats.Median(lat[di][48:])
		remote := stats.Median(lat[di][:48])
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: median remote-layer latency %.0f, local-layer (inputs 48-63) %.0f",
			d.Name, remote, local))
	}
	t.Notes = append(t.Notes, "paper: L-2-L LRG local inputs see ~4x latency; CLRG restores flat-2D fairness")
	return t, nil
}

// Fig11b reproduces paper Fig 11(b): aggregate throughput (packets/ns)
// versus offered load (packets/input/ns) under uniform random traffic for
// the four arbitration schemes.
func Fig11b(o Opts) (*Table, error) {
	o = o.norm()
	loads := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}
	designs := arbitrationDesigns()

	cells, err := sweep(o, len(designs)*len(loads), func(k int) (string, error) {
		d := designs[k/len(loads)]
		cost := d.Cost(o.Tech)
		c := o.simConfig("fig11b", k, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.Uniform{Radix: 64}, loads[k%len(loads)]/cost.FreqGHz
		res, err := sim.Run(c)
		return f(res.AcceptedPackets*cost.FreqGHz, 2), err
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig11b",
		Title:  "Throughput (packets/ns) vs load, uniform random traffic, arbitration schemes",
		Header: designHeader("Load(pkt/in/ns)", designs),
		Rows:   byColumn(loads, cells),
		Notes: []string{
			"paper: all 3D schemes ~15% above 2D; CLRG marginally below L-2-L LRG (2.2 vs 2.24 GHz)",
		},
	}, nil
}

// Fig11c reproduces paper Fig 11(c): per-input throughput (packets/ns) of
// the adversarial pattern's five requesting inputs. L-2-L LRG hands input
// 20 half the output; WLRG and CLRG equalize all five at one fifth.
func Fig11c(o Opts) (*Table, error) {
	o = o.norm()
	designs := arbitrationDesigns()
	inputs := []int{3, 7, 11, 15, 20}

	tput, err := sweep(o, len(designs), func(di int) ([]float64, error) {
		d := designs[di]
		cost := d.Cost(o.Tech)
		c := o.simConfig("fig11c", di, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.Adversarial(), 1.0
		res, err := sim.Run(c)
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(inputs))
		for i, in := range inputs {
			col[i] = res.PerInputPackets[in] * cost.FreqGHz
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, len(inputs))
	for i, in := range inputs {
		row := []string{fmt.Sprintf("%d", in)}
		for di := range designs {
			row = append(row, f(tput[di][i], 3))
		}
		rows[i] = row
	}
	return &Table{
		ID:     "fig11c",
		Title:  "Per-input throughput (packets/ns), adversarial pattern {3,7,11,15 on L1; 20 on L2} -> output 63",
		Header: designHeader("Input", designs),
		Rows:   rows,
		Notes:  []string{"paper: L-2-L LRG gives input 20 ~half the output; WLRG/CLRG give each input ~1/5"},
	}, nil
}

// Fig12 reproduces paper Fig 12: Hi-Rise frequency and area sensitivity
// to TSV pitch (64-radix, 4-channel, 4 layers, CLRG), with the 2D switch
// as the flat reference.
func Fig12(o Opts) (*Table, error) {
	o = o.norm()
	pitches := []float64{0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0}
	d2 := phys.Flat2D(64, o.Tech)
	rows, err := sweep(o, len(pitches), func(i int) ([]string, error) {
		p := pitches[i]
		tech := o.Tech
		tech.TSVPitchUM = p
		c := designHiRise("", 4, topo.CLRG).Cost(tech)
		return []string{f(p, 1), f(c.FreqGHz, 2), f(c.AreaMM2, 3), f(d2.FreqGHz, 2), f(d2.AreaMM2, 3)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig12",
		Title:  "Sensitivity to TSV pitch (64-radix 4-channel 4-layer Hi-Rise, CLRG)",
		Header: []string{"Pitch(um)", "Freq(GHz)", "Area(mm2)", "2D Freq", "2D Area"},
		Rows:   rows,
		Notes:  []string{"paper: +25% pitch costs only 1.67% area and 1.8% frequency"},
	}, nil
}
