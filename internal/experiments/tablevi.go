package experiments

import (
	"github.com/reprolab/hirise/internal/manycore"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/trace"
)

func init() {
	register("table6", TableVI)
	register("table6-addr", TableVIAddr)
}

// tableVIDesigns are the two systems Table VI compares: the 2D
// Swizzle-Switch and Hi-Rise 4-channel CLRG.
func tableVIDesigns() [2]Design {
	return [2]Design{design2D(64), designHiRise("Hi-Rise", 4, topo.CLRG)}
}

// runMix runs benches on the 64-core system around a fresh switch of
// design d at the design's modeled clock. The many-core windows are in
// core cycles, scaled from the switch-cycle opts.
func runMix(o Opts, d Design, benches []trace.Benchmark, seed uint64, addressMode bool) (manycore.Result, error) {
	sys, err := manycore.New(manycore.Config{
		SwitchGHz:   d.Cost(o.Tech).FreqGHz,
		AddressMode: addressMode,
		Warmup:      o.Warmup * 2, Measure: o.Measure * 2,
		Seed: seed, Ctx: o.ctx,
	}, d.NewSwitch(), benches)
	if err != nil {
		return manycore.Result{}, err
	}
	return sys.Run()
}

// runMixPair runs mix i of experiment id under both Table VI designs.
// Both switches run under the same derived seed so the speedup
// comparison stays paired.
func runMixPair(o Opts, id string, i int, mix trace.Mix, addressMode bool) ([2]manycore.Result, error) {
	var out [2]manycore.Result
	benches, err := mix.Assign(64, o.seedFor(id, i, 0))
	if err != nil {
		return out, err
	}
	for j, d := range tableVIDesigns() {
		if out[j], err = runMix(o, d, benches, o.seedFor(id, i, 1), addressMode); err != nil {
			return out, err
		}
	}
	return out, nil
}

// TableVI reproduces paper Table VI: normalized system speedup of a
// 64-core processor using a single Hi-Rise 4-channel CLRG switch over the
// same system with a 2D Swizzle-Switch, across eight multi-programmed
// workload mixes. The two systems are identical except for the switch —
// including its clock, which the physical model supplies.
func TableVI(o Opts) (*Table, error) {
	o = o.norm()
	mixes := trace.TableVIMixes()
	results, err := sweep(o, len(mixes), func(i int) ([2]manycore.Result, error) {
		return runMixPair(o, "table6", i, mixes[i], false)
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, len(mixes))
	sum := 0.0
	for i, mix := range mixes {
		speedup := results[i][1].SystemIPC / results[i][0].SystemIPC
		rows[i] = []string{
			mix.Name,
			f(mix.AvgMPKI(), 1),
			f(speedup, 2),
			f(mix.PaperSpeedup, 2),
		}
		sum += speedup
	}
	rows = append(rows, []string{"GeoMean-ish avg", "", f(sum/float64(len(mixes)), 3), "1.08"})
	return &Table{
		ID:     "table6",
		Title:  "64-core application workloads: Hi-Rise (4-ch CLRG) speedup over 2D Swizzle-Switch",
		Header: []string{"Mix", "avg MPKI", "Speedup (measured)", "Speedup (paper)"},
		Rows:   rows,
		Notes: []string{
			"synthetic MPKI-calibrated traces replace the paper's Pin traces (see DESIGN.md)",
			"paper: 8% average speedup, up to 15-16% for the highest-MPKI mixes",
		},
	}, nil
}

// TableVIAddr cross-validates Table VI in address-driven mode: instead
// of MPKI coin flips, every core runs a real Table III L1 (tags, LRU,
// MSHRs) over a calibrated synthetic address stream, and the L2 banks
// keep real tags. Misses — and therefore network load — emerge from
// cache state. The table reports the measured L1 MPKI alongside the
// speedup so the two modes can be compared.
func TableVIAddr(o Opts) (*Table, error) {
	o = o.norm()
	mixes := trace.TableVIMixes()
	results, err := sweep(o, len(mixes), func(i int) ([2]manycore.Result, error) {
		return runMixPair(o, "table6-addr", i, mixes[i], true)
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, len(mixes))
	sum := 0.0
	for i, mix := range mixes {
		r2, rh := results[i][0], results[i][1]
		speedup := rh.SystemIPC / r2.SystemIPC
		rows[i] = []string{
			mix.Name,
			f(mix.AvgMPKI(), 1),
			f(rh.AvgL1MPKI, 1),
			f(speedup, 2),
			f(mix.PaperSpeedup, 2),
		}
		sum += speedup
	}
	rows = append(rows, []string{"GeoMean-ish avg", "", "", f(sum/float64(len(mixes)), 3), "1.08"})
	return &Table{
		ID:     "table6-addr",
		Title:  "Table VI cross-validated in address-driven mode (real L1/L2 tags, calibrated address streams)",
		Header: []string{"Mix", "Catalog MPKI", "Measured L1 MPKI", "Speedup (measured)", "Speedup (paper)"},
		Rows:   rows,
		Notes: []string{
			"misses emerge from real cache state instead of MPKI coin flips",
			"agreement with the probabilistic-mode table validates the workload substitution end to end",
		},
	}, nil
}
