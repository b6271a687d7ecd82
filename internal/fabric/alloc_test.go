package fabric

import (
	"testing"

	"github.com/reprolab/hirise/internal/traffic"
)

// TestRunSteadyStateAllocs pins the fabric's hot-loop property: with
// Obs disabled, every allocation happens during setup (routers, VC
// rings, source queues, histogram, route tables), so simulating
// four times as many cycles must allocate no more than the baseline.
// Run on the dragonfly with Valiant routing — the path that touches
// every mechanism: two-phase routes, class bumps, and lane rotation.
func TestRunSteadyStateAllocs(t *testing.T) {
	topo := Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2}
	allocs := func(cycles int64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(Config{
				Topo:    topo,
				Routing: Valiant,
				Traffic: traffic.Uniform{Radix: topo.Nodes() * topo.Conc},
				Load:    0.3, Warmup: 500, Measure: cycles, Seed: 7,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(8000)
	// Both runs pay identical setup; a small slack absorbs
	// runtime-internal noise without masking a per-cycle leak.
	if long > short+2 {
		t.Errorf("6000 extra cycles allocated %.0f extra times (%.0f -> %.0f); hot loop no longer allocation-free",
			long-short, short, long)
	}
}

// TestRunSetupAllocBudget pins the constructor side: network setup
// draws router state, VC rings, and source queues from a handful of
// network-wide slabs, so even the 72-router perf-suite dragonfly must
// stay within a fixed allocation budget per Run. The budget is ~5x
// below the pre-slab cost (one allocation per VC buffer alone put it
// past 5000); a regression back to per-object allocation trips this
// immediately.
func TestRunSetupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size network construction")
	}
	d := Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(Config{
			Topo: d, Routing: Minimal,
			Traffic: traffic.Uniform{Radix: d.Nodes() * d.Conc},
			Load:    1.0, Warmup: 100, Measure: 200, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("72-router fabric run allocated %.0f times, budget 1000", allocs)
	}
}
