package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

func init() { register("degradation", Degradation) }

// degradationCounts are the failed-L2LC counts of the campaign. The
// 4-layer 4-channel geometry has 48 channels across 12 ordered layer
// pairs, so 32 failures leave at least one healthy channel per pair
// (the per-pair budget caps at 36).
var degradationCounts = []int{0, 4, 8, 16, 24, 32}

// degradationSchemes are the arbitration schemes compared, mirroring the
// paper's CLRG-vs-LRG axis. Fault selection depends only on the channel
// topology, never on the scheme, so both columns at a given count lose
// the *same* channels.
var degradationSchemes = []topo.Scheme{topo.CLRG, topo.L2LLRG}

// Degradation sweeps the fault plane over the saturated 4-layer Hi-Rise
// switch: for each failed-L2LC count it fail-stops a deterministic,
// nested set of channels (the K-fault set is a subset of the K+1-fault
// set, so capacity only shrinks along the rows) and measures saturation
// throughput and latency quantiles with the invariant checker on. Every
// simulated cycle of this table is self-checking: a grant on a failed
// resource or an unaccounted flit aborts the experiment.
func Degradation(o Opts) (*Table, error) {
	o = o.norm()
	type cell struct{ tput, p50, p99 float64 }
	ns := len(degradationSchemes)
	cells, err := sweep(o, len(degradationCounts)*ns, func(k int) (cell, error) {
		ci, si := k/ns, k%ns
		d := designHiRise("3D", 4, degradationSchemes[si])
		plan, err := fault.Spec{
			Seed: o.Seed, Campaign: "degradation", Cfg: d.Cfg,
			FailChannels: degradationCounts[ci],
		}.Build()
		if err != nil {
			return cell{}, err
		}
		// The seed depends on the count only: both schemes at a row see
		// the same offered traffic as well as the same failed channels.
		c := o.simConfig("degradation", ci, 0)
		c.Switch, c.Traffic, c.Load = d.NewSwitch(), traffic.Uniform{Radix: d.Cfg.Radix}, 1.0
		c.Faults, c.Check = plan, true
		res, err := sim.Run(c)
		return cell{res.AcceptedFlits, res.P50Latency, res.P99Latency}, err
	})
	if err != nil {
		return nil, err
	}

	rows := make([][]string, len(degradationCounts))
	for ci, n := range degradationCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for si := range degradationSchemes {
			c := cells[ci*ns+si]
			row = append(row, f(c.tput, 2), f(c.p50, 1), f(c.p99, 1))
		}
		rows[ci] = row
	}
	header := []string{"Failed L2LCs"}
	for _, s := range degradationSchemes {
		header = append(header, s.String()+" tput", s.String()+" p50", s.String()+" p99")
	}
	return &Table{
		ID:     "degradation",
		Title:  "Saturation throughput (flits/cycle) and latency (cycles) vs failed channels",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"fail-stop channel faults, nested sets: each row's failures include the previous row's",
			"invariant checker on for every run: failed-resource grants or lost flits abort",
		},
	}, nil
}
