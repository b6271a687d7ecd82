package main

import (
	"math"
	"time"

	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/serve"
)

// Interarrival gaps are bounded-Pareto with shape paretoAlpha, truncated
// at paretoCap times the minimum gap: bursty arrivals from independent
// clients.
const (
	paretoAlpha = 2.5
	paretoCap   = 10.0
)

// arrival is one scheduled request: when it is due (offset from the
// start of the timed phase), which spec it submits, and which node it
// goes to.
type arrival struct {
	at     time.Duration
	spec   int
	target int
}

// boundedPareto maps a uniform u in [0,1) onto a Pareto(alpha) draw
// truncated to [1, cap].
func boundedPareto(u, alpha, cap float64) float64 {
	return 1 / math.Pow(1-u*(1-math.Pow(cap, -alpha)), 1/alpha)
}

// buildSchedule precomputes the whole open-loop schedule from the seed:
// n arrivals round-robin over nodes, with bounded-Pareto gaps scaled so
// the last one is due exactly at span — the mean rate is n/span for
// every seed, so runs of different seeds offer the same load for the
// same time. With keyspace > 0 each arrival draws a spec uniformly from
// [0, keyspace); with keyspace 0 arrival i submits spec i, so every
// request is distinct. The same arguments always give the same
// schedule.
func buildSchedule(seed uint64, workload string, n int, span time.Duration, keyspace, nodes int) []arrival {
	r := prng.New(pool.SeedFor(seed, pool.StringID(workload), pool.StringID("schedule")))
	out := make([]arrival, n)
	at := make([]float64, n)
	var t float64
	for i := range out {
		t += boundedPareto(r.Float64(), paretoAlpha, paretoCap)
		at[i] = t
		spec := i
		if keyspace > 0 {
			spec = r.Intn(keyspace)
		}
		out[i] = arrival{spec: spec, target: i % nodes}
	}
	for i := range out {
		out[i].at = time.Duration(at[i] / t * float64(span))
	}
	return out
}

// specSeed derives spec k's simulation seed from the workload seed.
// Simulation seeds are never 0 (the engine remaps 0 to 1, which would
// alias two specs).
func specSeed(seed uint64, workload string, k int) uint64 {
	s := pool.SeedFor(seed, pool.StringID(workload), pool.StringID("spec"), uint64(k))
	if s == 0 {
		s = 1
	}
	return s
}

// loadsweep returns a fully normalized loadsweep request: every field
// the server would default is filled in, so the benchmark can derive
// the store key the server will compute for it (checked against the
// key each submission returns).
func loadsweep(design string, radix int, load float64, warmup, measure int64, seed uint64) serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: design, Radix: radix,
		Layers: 4, Channels: 4, Classes: 3, Scheme: "clrg", Alloc: "input",
		Traffic: "uniform", Loads: []float64{load}, VCs: 4, Flits: 4,
		Seed: seed, Warmup: warmup, Measure: measure,
	}
}
