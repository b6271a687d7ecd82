package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
	"github.com/reprolab/hirise/internal/xpoint"
)

// perfSchema identifies the -perf JSON layout; bump on breaking
// changes. The format is documented in EXPERIMENTS.md.
const perfSchema = "hirise-bench-perf/v1"

// perfResult is one microbenchmark measurement.
type perfResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// perfFile is the -perf output document. Baseline, when present, is a
// previous run (passed via -perf-baseline) echoed verbatim so one file
// carries the before/after pair.
type perfFile struct {
	Schema     string       `json:"schema"`
	Benchmarks []perfResult `json:"benchmarks"`
	Baseline   []perfResult `json:"baseline,omitempty"`
}

// perfSuite lists the hot-kernel microbenchmarks -perf runs: the two
// switch models' arbitration hot loops at radix 64 and 128, the
// bit-level cross-point columns, and the end-to-end uniform-traffic
// simulations. These are the same workloads as the testing benchmarks
// in internal/core, internal/crossbar, internal/xpoint, and
// internal/sim, so numbers are comparable with `go test -bench`.
func perfSuite() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"core/ArbitrateHotLoop/radix=64", perfCore(64)},
		{"core/ArbitrateHotLoop/radix=128", perfCore(128)},
		{"crossbar/ArbitrateHotLoop/radix=64", perfCrossbar(64)},
		{"crossbar/ArbitrateHotLoop/radix=128", perfCrossbar(128)},
		{"xpoint/ColumnArbitrate/n=64", perfColumn(64)},
		{"xpoint/ColumnArbitrate/n=128", perfColumn(128)},
		{"xpoint/CLRGColumnArbitrate/n=13", perfCLRGColumn()},
		{"sched/ISLIP2Schedule/n=64", perfSched(sched.NewISLIP(64, 2), 64)},
		{"sched/ISLIP2Schedule/n=128", perfSched(sched.NewISLIP(128, 2), 128)},
		{"sched/WavefrontSchedule/n=64", perfSched(sched.NewWavefront(64), 64)},
		{"sched/WavefrontSchedule/n=128", perfSched(sched.NewWavefront(128), 128)},
		{"sched/MWMSchedule/n=32", perfSched(sched.NewMWM(32), 32)},
		{"sim/Uniform2D/radix=64", perfSim(func() sim.Switch { return crossbar.New(64) })},
		{"sim/UniformHiRiseCLRG/radix=64", perfSim(func() sim.Switch {
			sw, err := core.New(topo.Default64())
			if err != nil {
				panic(err)
			}
			return sw
		})},
		{"fabric/DragonflySaturation/routers=72", perfFabric(
			fabric.Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1})},
		{"fabric/MeshSaturation/routers=256", perfFabric(fabric.Mesh{W: 16, H: 16, Conc: 4, Lanes: 1})},
	}
}

// Campaign-throughput benchmarks: one op is a table4-ci-shaped campaign
// of campaignPoints points, each point campaignReplicates replicates of
// a radix-64 LRG crossbar under saturated uniform traffic (the Table IV
// operating point). The arm calls sim.Run once per replicate with a
// fresh switch. It runs at one worker and at a fixed two, so allocs/op
// — which the perf gate holds exactly — does not depend on the
// machine's CPU count.
//
// Unlike the hot-kernel suite, the arms are NOT measured as isolated
// testing.Benchmark runs: on a shared machine minutes of drift between
// two isolated runs lands entirely on one arm. measureCampaigns instead
// times the arms round-robin, so every round exposes every arm to the
// same machine state.
const (
	campaignPoints     = 4
	campaignReplicates = 4
	campaignRounds     = 8
)

func campaignCfg() sim.Config {
	return sim.Config{
		Traffic: traffic.Uniform{Radix: 64},
		Load:    1.0, Warmup: 500, Measure: 2000,
	}
}

func campaignSeeds(point int) []uint64 {
	seeds := make([]uint64, campaignReplicates)
	for rep := range seeds {
		seeds[rep] = pool.SeedFor(9, uint64(point), uint64(rep))
	}
	return seeds
}

// campaignSeqOp runs one sequential campaign on the given worker
// count: every replicate is its own sim.Run with a fresh switch.
func campaignSeqOp(workers int) error {
	cfg := campaignCfg()
	var firstErr error
	pool.Do(campaignPoints, workers, func(point int) {
		for _, seed := range campaignSeeds(point) {
			c := cfg
			c.Switch = crossbar.New(64)
			c.Seed = seed
			if _, err := sim.Run(c); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// measureCampaigns times the campaign arms over campaignRounds
// interleaved rounds (after one untimed warmup round) and returns one
// perfResult per arm, in suite order. Allocations are read from
// runtime.MemStats around each timed op; allocs/op is the fewest any
// round made, so a round where the runtime allocates for itself (a new
// goroutine stack or sudog in pool.Do) does not move the exact allocs
// gate.
func measureCampaigns() ([]perfResult, error) {
	arms := []struct {
		name string
		op   func() error
	}{
		{"campaign/PointsPerSec/seq/parallel=1", func() error { return campaignSeqOp(1) }},
		{"campaign/PointsPerSec/seq/parallel=2", func() error { return campaignSeqOp(2) }},
	}
	elapsed := make([]time.Duration, len(arms))
	allocs := make([]uint64, len(arms)) // fewest over the rounds
	bytesA := make([]uint64, len(arms))
	for round := -1; round < campaignRounds; round++ {
		for i, arm := range arms {
			// Collect before each timed slot so one arm's garbage (it
			// allocates a switch and the run's slabs per replicate) is
			// never collected on another arm's clock — the same
			// isolation testing.B applies between benchmarks.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := arm.op()
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arm.name, err)
			}
			if round < 0 {
				continue // warmup round: untimed
			}
			elapsed[i] += d
			if n := after.Mallocs - before.Mallocs; round == 0 || n < allocs[i] {
				allocs[i] = n
			}
			bytesA[i] += after.TotalAlloc - before.TotalAlloc
		}
	}
	out := make([]perfResult, len(arms))
	for i, arm := range arms {
		out[i] = perfResult{
			Name:        arm.name,
			NsPerOp:     float64(elapsed[i].Nanoseconds()) / campaignRounds,
			AllocsPerOp: int64(allocs[i]),
			BytesPerOp:  int64(bytesA[i] / campaignRounds),
			Iterations:  campaignRounds,
		}
	}
	return out, nil
}

// perfFabric benchmarks one saturated steady-state fabric simulation per
// op: the topology under fully-backlogged uniform traffic with minimal
// routing, 200 warmup + 800 measured cycles. This is the multi-switch
// routing/credit hot loop end to end — route computation, credit
// tests, arbitration, and link transfers at every router every cycle.
// The suite runs it on a 72-router dragonfly (9 groups x 8 routers,
// 144 cores) and on the 16x16 mesh of 4-core routers that is the fabric
// campaign's costliest row.
func perfFabric(t fabric.Topology) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fabric.Run(fabric.Config{
				Topo: t, Routing: fabric.Minimal,
				Traffic: traffic.Uniform{Radix: t.Nodes() * t.Concentration()},
				Load:    1.0, Warmup: 200, Measure: 800,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// perfCore benchmarks 16 Hi-Rise arbitration cycles per op under
// rotating contention (every input requests a random output; grants
// release every 4 cycles), mirroring internal/core's hot-loop bench.
func perfCore(radix int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := topo.Default64()
		cfg.Radix = radix
		sw, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		workload := perfArbWorkload(sw, radix)
		workload(64) // warm up: grow the grants buffer once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workload(16)
		}
	}
}

// perfCrossbar benchmarks one fully-loaded 2D arbitration cycle per op
// with immediate release, mirroring internal/crossbar's hot-loop bench
// (note the unit difference: one cycle per op, not 16).
func perfCrossbar(radix int) func(b *testing.B) {
	return func(b *testing.B) {
		sw := crossbar.New(radix)
		src := prng.New(7)
		req := make([]int, radix)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range req {
				req[j] = src.Intn(radix)
			}
			for _, g := range sw.Arbitrate(req) {
				sw.Release(g.In)
			}
		}
	}
}

type perfSwitch interface {
	Arbitrate(req []int) []topo.Grant
	Release(in int)
}

func perfArbWorkload(sw perfSwitch, radix int) func(cycles int) {
	src := prng.New(7)
	req := make([]int, radix)
	holding := make([]int, 0, radix)
	return func(cycles int) {
		for c := 0; c < cycles; c++ {
			for i := range req {
				req[i] = src.Intn(radix)
			}
			for _, g := range sw.Arbitrate(req) {
				holding = append(holding, g.In)
			}
			if c%4 == 3 {
				for _, in := range holding {
					sw.Release(in)
				}
				holding = holding[:0]
			}
		}
	}
}

func perfColumn(n int) func(b *testing.B) {
	return func(b *testing.B) {
		c := xpoint.NewColumn(n)
		r := bitvec.New(n)
		for i := 0; i < n; i += 2 {
			r.Set(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Arbitrate(r)
		}
	}
}

func perfCLRGColumn() func(b *testing.B) {
	return func(b *testing.B) {
		c := xpoint.NewCLRGColumn(13, 64, 3)
		r := bitvec.New(13)
		inputOf := make([]int, 13)
		for i := 0; i < 13; i++ {
			if i%2 == 0 {
				r.Set(i)
			}
			inputOf[i] = i * 4
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Arbitrate(r, inputOf)
		}
	}
}

// perfSched benchmarks one crossbar matching per op over a fixed ~25%
// dense request matrix with queue-length weights, mirroring the
// steady-state Schedule benchmarks in internal/sched (schedulers are
// stateful, so pointer rotation is part of the measured work).
func perfSched(s sched.Scheduler, n int) func(b *testing.B) {
	return func(b *testing.B) {
		src := prng.New(7)
		req := make([]bitvec.Vec, n)
		qlen := make([]int32, n*n)
		match := make([]int, n)
		for i := range req {
			req[i] = bitvec.New(n)
			for o := 0; o < n; o++ {
				if src.Bernoulli(0.25) {
					req[i].Set(o)
					qlen[i*n+o] = int32(1 + src.Intn(8))
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Schedule(req, qlen, match)
		}
	}
}

// perfSim benchmarks one full simulation per op: 500 warmup + 2000
// measured cycles of uniform traffic at 20% load, matching the sim
// package's end-to-end benchmarks. Every op is one sim.Run on a fresh
// switch, so allocs/op counts the switch's construction and the run's
// setup; the cycle loop itself allocates nothing.
func perfSim(mk func() sim.Switch) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sim.Config{
				Switch:  mk(),
				Traffic: traffic.Uniform{Radix: 64},
				Load:    0.2, Warmup: 500, Measure: 2000, Seed: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// loadPerfFile reads and schema-checks one -perf JSON document.
func loadPerfFile(path string) (perfFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return perfFile{}, fmt.Errorf("perf file: %w", err)
	}
	var pf perfFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		return perfFile{}, fmt.Errorf("perf file %s: %w", path, err)
	}
	if pf.Schema != perfSchema {
		return perfFile{}, fmt.Errorf("perf file %s: schema %q, want %q", path, pf.Schema, perfSchema)
	}
	return pf, nil
}

// runPerf executes the microbenchmark suite, prints a summary table to
// stdout (with speedups when a baseline is given), and writes the JSON
// document to outPath. baselinePath, when non-empty, names a previous
// -perf output whose benchmarks are embedded as the baseline.
func runPerf(outPath, baselinePath string) error {
	var baseline []perfResult
	if baselinePath != "" {
		prev, err := loadPerfFile(baselinePath)
		if err != nil {
			return fmt.Errorf("perf baseline: %w", err)
		}
		baseline = prev.Benchmarks
	}
	baseNs := make(map[string]float64, len(baseline))
	for _, r := range baseline {
		baseNs[r.Name] = r.NsPerOp
	}

	doc := perfFile{Schema: perfSchema, Baseline: baseline}
	row := func(pr perfResult) {
		speedup := "-"
		if prev, ok := baseNs[pr.Name]; ok && pr.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", prev/pr.NsPerOp)
		}
		fmt.Printf("%-42s %15.1f %12d %10s\n", pr.Name, pr.NsPerOp, pr.AllocsPerOp, speedup)
	}
	fmt.Printf("%-42s %15s %12s %10s\n", "benchmark", "ns/op", "allocs/op", "vs base")
	for _, bench := range perfSuite() {
		res := testing.Benchmark(bench.fn)
		pr := perfResult{
			Name:        bench.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		doc.Benchmarks = append(doc.Benchmarks, pr)
		row(pr)
	}
	campaigns, err := measureCampaigns()
	if err != nil {
		return err
	}
	for _, pr := range campaigns {
		doc.Benchmarks = append(doc.Benchmarks, pr)
		row(pr)
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return fmt.Errorf("perf output: %w", err)
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
