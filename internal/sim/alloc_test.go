package sim

import (
	"runtime"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// TestRunSteadyStateAllocs pins the hot-loop property the simulator's
// throughput depends on: with Obs disabled, every allocation happens
// during setup (ports, VC buffers, the source-queue rings, histogram),
// so simulating four times as many cycles must allocate no more than
// simulating the baseline count. Checked for both switch models, which
// also covers their own arbitration scratch reuse end to end.
func TestRunSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Switch
	}{
		{"2D64", func() Switch { return crossbar.New(64) }},
		{"HiRiseCLRG", func() Switch { return hirise(t, 4, topo.CLRG) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(cycles int64) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := Run(Config{
						Switch:  tc.mk(),
						Traffic: traffic.Uniform{Radix: 64},
						Load:    0.3, Warmup: 500, Measure: cycles, Seed: 7,
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(2000), allocs(8000)
			// Both runs pay identical setup; a small slack absorbs
			// runtime-internal noise without masking a per-cycle leak,
			// which would show up as thousands of extra allocations.
			if long > short+2 {
				t.Errorf("6000 extra cycles allocated %.0f extra times (%.0f -> %.0f); hot loop no longer allocation-free",
					long-short, short, long)
			}
		})
	}
}

// TestServeColdJobBytes pins the memory of one serve_cold-shaped job:
// building a radix-64 Hi-Rise CLRG switch and running 30+150 cycles of
// uniform traffic at load 0.2 through it, as a served loadsweep point
// does. The result histogram is sized to the run (obs.RunHistogramBins),
// so it no longer costs 32 KiB of bins; the job allocated 186.7 KB in
// 25 allocations while it did.
func TestServeColdJobBytes(t *testing.T) {
	job := func() {
		sw, err := core.New(hiriseCfg(4, topo.CLRG))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Config{
			Switch: sw, Traffic: traffic.Uniform{Radix: 64},
			Load: 0.2, Warmup: 30, Measure: 150, Seed: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	job() // first-use effects (lazily grown runtime structures) stay out of the count
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("serve_cold job: %d allocs, %d bytes", allocs, bytes)
	if allocs > 25 {
		t.Errorf("serve_cold job allocated %d times, want at most 25", allocs)
	}
	if bytes > 156_000 {
		t.Errorf("serve_cold job allocated %d bytes, want at most 156000 (186.7 KB with a 4096-bin result histogram)", bytes)
	}
}
