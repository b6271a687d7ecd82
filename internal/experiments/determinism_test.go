package experiments

import (
	"runtime"
	"testing"
)

// fastOpts is a fidelity low enough to run several experiments per test
// on one core while still exercising every sweep shape.
func fastOpts(workers int) Opts {
	o := QuickOpts()
	o.Warmup, o.Measure = 500, 2000
	o.Workers = workers
	return o
}

// TestWorkerCountInvariance is the engine's core guarantee: an
// experiment renders byte-identically at every worker count, because
// seeds derive from (experiment, point, replicate) coordinates and
// results reduce in index order — never from scheduling. The ids cover
// each sweep shape: a per-design cost sweep (table4), a flattened
// design x load grid (fig10), per-seed replicates (table4-ci), a
// paired-seed many-core comparison (table6-detail), and an ablation
// with two runs per point (ablate-classes).
func TestWorkerCountInvariance(t *testing.T) {
	ids := []string{"table4", "fig10", "table4-ci", "table6-detail", "ablate-classes"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			serial := mustRun(t, r, fastOpts(1)).String()
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := mustRun(t, r, fastOpts(w)).String(); got != serial {
					t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
						w, serial, w, got)
				}
			}
		})
	}
}

// TestSameSeedReproduces pins the replicate experiment: the same seed
// must reproduce the exact confidence intervals, and a different seed
// must not (otherwise the "replicates" are not actually resampling).
func TestSameSeedReproduces(t *testing.T) {
	o := fastOpts(0)
	a := mustRun(t, TableIVReplicated, o).String()
	b := mustRun(t, TableIVReplicated, o).String()
	if a != b {
		t.Errorf("same seed produced different table4-ci output:\n%s\nvs\n%s", a, b)
	}
	o.Seed = 12345
	if c := mustRun(t, TableIVReplicated, o).String(); c == a {
		t.Error("different seed produced identical table4-ci output")
	}
}
