package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/reprolab/hirise/internal/experiments"
)

// campaignIDs are the experiments of the sim_campaign workload: between
// them they run every cycle-loop engine (sim.Run, sim.BatchRun,
// sim.RunVOQ and fabric.Run).
var campaignIDs = []string{"fig10", "table4-ci", "sched-shootout", "fabric"}

const (
	// The campaign's fixed reduced fidelity, in cycles.
	campaignWarmup, campaignMeasure = 100, 400
	// Set-up runs every experiment once at this fidelity to page in code
	// and fill the engines' arena pools.
	setupWarmup, setupMeasure = 20, 80
	// digestSeeds is how many campaign seeds have recorded digests; the
	// workload seed selects one of them.
	digestSeeds = 16
	// tableLimit is the latency limit for one table, from the call that
	// asks for it.
	tableLimit = 5 * time.Second
)

// campaignSeed maps a workload seed onto the campaign seeds 1..16, the
// ones whose table digests are recorded in digests.go.
func campaignSeed(seed uint64) uint64 { return 1 + seed%digestSeeds }

func campaignOpts(seed uint64, warmup, measure int64) experiments.Opts {
	return experiments.Opts{Warmup: warmup, Measure: measure, Seed: seed, Workers: runtime.NumCPU()}
}

// tableDigest is the hex sha256 of a table as hirise-bench prints it.
func tableDigest(t *experiments.Table) string {
	sum := sha256.Sum256([]byte(t.String()))
	return hex.EncodeToString(sum[:])
}

// campaignRep is one pass over every campaign experiment.
type campaignRep struct {
	wall, cpu  time.Duration
	perExp     map[string]time.Duration
	pointsMS   []float64 // per simulation task: completion time from its RunCtx call
	tables     int
	inTime     int // tables correct and in hand within tableLimit
	errs       int
	mismatches int
}

// runCampaignOnce runs every campaign experiment in turn at the
// campaign fidelity and checks each table against its recorded digest.
func runCampaignOnce(ctx context.Context, cs uint64, tr *tracer) campaignRep {
	rep := campaignRep{perExp: map[string]time.Duration{}}
	cpu0, start := cpuTime(), time.Now()
	for _, id := range campaignIDs {
		var mu sync.Mutex
		var points []float64
		t0 := time.Now()
		o := campaignOpts(cs, campaignWarmup, campaignMeasure)
		o.Progress = func() {
			d := ms(time.Since(t0))
			mu.Lock()
			points = append(points, d)
			mu.Unlock()
		}
		tbl, err := experiments.RunCtx(ctx, id, o)
		d := time.Since(t0)
		rep.perExp[id] = d
		rep.tables++
		ok := err == nil
		switch {
		case err != nil:
			rep.errs++
		case tableDigest(tbl) != digests[cs][id]:
			rep.mismatches++
			ok = false
		}
		if ok && d <= tableLimit {
			rep.inTime++
		}
		mu.Lock()
		rep.pointsMS = append(rep.pointsMS, points...)
		mu.Unlock()
		tr.span("campaign", "experiments.RunCtx "+id, 0, t0, t0.Add(d), map[string]any{"points": len(points), "ok": ok})
	}
	rep.wall, rep.cpu = time.Since(start), cpuTime()-cpu0
	return rep
}

// campaignPhase repeats the campaign until seconds have passed and the
// passes have yielded the tailWindow task latencies a p99 needs.
func campaignPhase(ctx context.Context, cs uint64, seconds int, tr *tracer) []campaignRep {
	var reps []campaignRep
	points := 0
	start := time.Now()
	for points < tailWindow || time.Since(start) < time.Duration(seconds)*time.Second {
		r := runCampaignOnce(ctx, cs, tr)
		reps = append(reps, r)
		points += len(r.pointsMS)
	}
	return reps
}

// campaignE2E reduces a phase to the end-to-end metrics: medians over
// passes for wall and CPU time, quantiles over every simulation task's
// latency, tasks per second, and the share of tables correct and in
// hand within tableLimit.
func campaignE2E(reps []campaignRep, setup float64) (map[string]float64, []float64) {
	var walls, cpus, points []float64
	var total time.Duration
	tables, inTime := 0, 0
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		points = append(points, r.pointsMS...)
		total += r.wall
		tables += r.tables
		inTime += r.inTime
	}
	p99, _ := windowedQuantile(points, 0.99)
	return map[string]float64{
		"setup_s":        setup,
		"wall_s":         median(walls),
		"cpu_s":          median(cpus),
		"peak_rss_mb":    peakRSSMB(),
		"latency_p50_ms": quantile(sortedCopy(points), 0.50),
		"latency_p99_ms": p99,
		"throughput_rps": ratio(float64(len(points)), total.Seconds()),
		"slo_attain":     ratio(float64(inTime), float64(tables)),
	}, points
}

// checkCampaign records the campaign's output checks and counts.
func (rep *report) checkCampaign(reps []campaignRep) {
	errs, mism, tables := 0, 0, 0
	for _, r := range reps {
		errs += r.errs
		mism += r.mismatches
		tables += r.tables
	}
	rep.attempted += tables
	rep.failedOps += errs
	rep.checkN("table sha256 equals recorded digest", mism, fmt.Sprintf("%d of %d tables differ", mism, tables-errs))
}

// runCampaign runs the sim_campaign workload.
func runCampaign(ctx context.Context, seed uint64, seconds int, traced bool, traceBase string) (*report, error) {
	cs := campaignSeed(seed)
	if _, ok := digests[cs]; !ok {
		return nil, fmt.Errorf("no recorded digests for campaign seed %d", cs)
	}
	rep := &report{traceBase: traceBase}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for _, id := range campaignIDs {
			if _, err := experiments.RunCtx(ctx, id, campaignOpts(cs, setupWarmup, setupMeasure)); err != nil {
				return nil, fmt.Errorf("set-up %s: %w", id, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	reps := campaignPhase(ctx, cs, seconds, nil)
	rep.checkCampaign(reps)
	var points []float64
	rep.e2e, points = campaignE2E(reps, median(setups))
	if t := beyond(len(points), 0.99); t < minTail {
		rep.invalid = append(rep.invalid, fmt.Sprintf("only %d task latencies beyond p99 (need %d)", t, minTail))
	}
	_, windows := windowedQuantile(points, 0.99)
	rep.notes = append(rep.notes, fmt.Sprintf("campaign seed %d, %d passes, %d task latency samples, p99 over %d windows of >= %d, fidelity %d+%d cycles",
		cs, len(reps), len(points), windows, tailWindow, campaignWarmup, campaignMeasure))
	if !traced {
		return rep, nil
	}

	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	treps := campaignPhase(ctx, cs, seconds, tr)
	gz := prof.stop()
	runtime.ReadMemStats(&m1)
	rep.checkCampaign(treps)
	te, tpoints := campaignE2E(treps, median(setups))

	layer := zeroLayer()
	for _, id := range campaignIDs {
		var ws []float64
		for _, r := range treps {
			ws = append(ws, r.perExp[id].Seconds())
		}
		layer["experiments."+id+".wall_s"] = median(ws)
	}
	layer["latency.samples"] = float64(len(tpoints))
	layer["failed_frac"] = rep.failedFrac()
	layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	layer["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	layer["latency_p99_ms"] = rep.e2e["latency_p99_ms"]
	for _, m := range []string{"latency_p50_ms", "latency_p99_ms", "wall_s", "cpu_s"} {
		layer["trace.overhead."+m] = te[m] - rep.e2e[m]
	}
	if err := rep.finishTrace(tr, gz, layer); err != nil {
		return nil, err
	}
	return rep, nil
}

// recordDigests prints digests.go for the current build: the table
// digest of every campaign experiment at every campaign seed.
func recordDigests(ctx context.Context) error {
	fmt.Println("// Code generated by e2ebench -record-digests; DO NOT EDIT.")
	fmt.Println()
	fmt.Println("package main")
	fmt.Println()
	fmt.Printf("// digests maps campaign seed -> experiment id -> sha256 of the table\n// rendered at the campaign fidelity (%d+%d cycles).\n", campaignWarmup, campaignMeasure)
	fmt.Println("var digests = map[uint64]map[string]string{")
	for cs := uint64(1); cs <= digestSeeds; cs++ {
		fmt.Printf("\t%d: {\n", cs)
		for _, id := range campaignIDs {
			tbl, err := experiments.RunCtx(ctx, id, campaignOpts(cs, campaignWarmup, campaignMeasure))
			if err != nil {
				return err
			}
			fmt.Printf("\t\t%q: %q,\n", id, tableDigest(tbl))
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	return nil
}
