package experiments

import (
	"sort"

	"github.com/reprolab/hirise/internal/manycore"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/trace"
)

func init() { register("table6-detail", TableVIDetail) }

// TableVIDetail drills into Table VI's heaviest workload (Mix8):
// per-application IPC under the 2D switch and under Hi-Rise, showing
// that the speedup concentrates in the network-bound applications — the
// mechanism behind the paper's observation that "the 3D switch provides
// better speedup for workloads with higher cache miss rates".
func TableVIDetail(o Opts) (*Table, error) {
	o = o.norm()
	mix := trace.TableVIMixes()[7] // Mix8
	benches, err := mix.Assign(64, o.Seed)
	if err != nil {
		return nil, err
	}
	designs := tableVIDesigns()
	// The two switches share one derived seed: the comparison is paired.
	seed := o.seedFor("table6-detail", 0, 0)
	results, err := sweep(o, len(designs), func(i int) (manycore.Result, error) {
		return runMix(o, designs[i], benches, seed, false)
	})
	if err != nil {
		return nil, err
	}

	// Group per-core IPC by application.
	type agg struct {
		mpki   float64
		d2, hr stats.Summary
	}
	groups := map[string]*agg{}
	for core, b := range benches {
		g, ok := groups[b.Name]
		if !ok {
			g = &agg{mpki: b.NetMPKI}
			groups[b.Name] = g
		}
		g.d2.Add(results[0].PerCoreIPC[core])
		g.hr.Add(results[1].PerCoreIPC[core])
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return groups[names[i]].mpki < groups[names[j]].mpki })

	rows := make([][]string, 0, len(names)+1)
	for _, n := range names {
		g := groups[n]
		rows = append(rows, []string{
			n,
			f(g.mpki, 1),
			f(g.d2.Mean(), 2),
			f(g.hr.Mean(), 2),
			f(g.hr.Mean()/g.d2.Mean(), 2),
		})
	}
	rows = append(rows, []string{
		"system", f(mix.AvgMPKI(), 1),
		f(results[0].SystemIPC, 1), f(results[1].SystemIPC, 1),
		f(results[1].SystemIPC/results[0].SystemIPC, 2),
	})
	return &Table{
		ID:     "table6-detail",
		Title:  "Mix8 per-application IPC: 2D Swizzle-Switch vs Hi-Rise 4-channel CLRG",
		Header: []string{"Application", "MPKI", "IPC (2D)", "IPC (Hi-Rise)", "Speedup"},
		Rows:   rows,
		Notes: []string{
			"speedup concentrates in the network-bound applications (paper §VI-D)",
		},
	}, nil
}
