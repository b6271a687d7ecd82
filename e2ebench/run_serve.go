package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// phaseResult is one timed phase of a serving workload.
type phaseResult struct {
	recs     []reqRecord
	sum      summary
	counters counters // deltas over the phase
	cpu      time.Duration
	gcCycles uint32
	allocMB  float64
	heapKB   float64 // live heap growth over the phase, after GC
}

// phase fires the schedule at a set-up cluster and measures it.
func (tb *testbed) phase(ctx context.Context, w serveWorkload, sched []arrival, bodies [][]byte, tr *tracer) (phaseResult, error) {
	var ph phaseResult
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, err := tb.snapshot(ctx)
	if err != nil {
		return ph, err
	}
	cpu0 := cpuTime()
	// A short lead keeps the first arrivals from being late by the
	// dispatcher's own start-up.
	start := time.Now().Add(10 * time.Millisecond)
	ph.recs = tb.fire(ctx, start, sched, bodies, tr)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	c1, err := tb.snapshot(ctx)
	if err != nil {
		return ph, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	ph.counters = c0.delta(c1)
	ph.sum = summarize(ph.recs, start, w.limit)
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ph.heapKB = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / 1024
	tr.counters("layer counter deltas", time.Now(), ph.counters.flat())
	tr.counters("/metrics deltas", time.Now(), ph.counters.metrics)
	return ph, nil
}

// runServe runs a serving workload: set-up (repeated), the untraced
// timed phase, and its output checks; when traced, a second set-up and
// a traced phase with a CPU profile, followed by the layer probes.
func runServe(ctx context.Context, w serveWorkload, seed uint64, seconds int, traced bool, root, traceBase string) (*report, error) {
	n := int(w.rate * float64(seconds))
	span := time.Duration(seconds) * time.Second
	nspecs := w.keyspace
	if nspecs == 0 {
		nspecs = n
	}
	specs := make([]serve.Request, nspecs)
	bodies := make([][]byte, nspecs)
	for k := range specs {
		specs[k] = w.spec(seed, k)
		b, err := json.Marshal(specs[k])
		if err != nil {
			return nil, err
		}
		bodies[k] = b
	}
	sched := buildSchedule(seed, w.name, n, span, w.keyspace, clusterNodes)
	var prewarm []serve.Request
	if w.keyspace > 0 {
		prewarm = specs
	}

	rep := &report{traceBase: traceBase}
	var setups []float64
	var tb *testbed
	for i := 0; i < setupRepeats; i++ {
		if tb != nil {
			tb.close()
		}
		t0 := time.Now()
		var err error
		if tb, err = w.setup(ctx, root, seed, prewarm, bodies); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph, err := tb.phase(ctx, w, sched, bodies, nil)
	tb.close()
	if err != nil {
		return nil, err
	}
	expect, err := expectations(specs, sched, ph.recs)
	if err != nil {
		return nil, err
	}
	rep.attempted = ph.sum.attempted
	rep.failedOps = ph.sum.failedOps
	rep.checkPhase(ph, sched, expect)
	rep.invalid = ph.sum.validity(w.lateBound)
	rep.e2e = serveE2E(ph, median(setups))
	rep.notes = append(rep.notes, fmt.Sprintf("latency samples %d, p99 over %d windows of >= %d, offered %d requests in %v, limit %v",
		len(ph.sum.latMS), ph.sum.p99Windows, tailWindow, n, span, w.limit))
	if !traced {
		return rep, nil
	}

	tb, err = w.setup(ctx, root, seed, prewarm, bodies)
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		tb.close()
		return nil, err
	}
	tph, err := tb.phase(ctx, w, sched, bodies, tr)
	gz := prof.stop()
	tb.close()
	if err != nil {
		return nil, err
	}
	texpect, err := expectations(specs, sched, tph.recs)
	if err != nil {
		return nil, err
	}
	rep.attempted += tph.sum.attempted
	rep.failedOps += tph.sum.failedOps
	rep.checkPhase(tph, sched, texpect)
	rep.invalid = append(rep.invalid, tph.sum.validity(w.lateBound)...)
	st := stages(tph.recs)
	lat, sum, covered := reconcile(tph.recs)
	resid := ratio(covered-lat, lat)
	rep.check("reconciliation", math.Abs(resid) > reconcileTolerance,
		fmt.Sprintf("mean latency %.4f ms; late+admit+queue+run+poll_gap+result cover %.4f ms (residual %+.2f%%), sum to %.4f ms (admit overlaps queue+run by %.4f ms)",
			lat, covered, 100*resid, sum, sum-covered))

	layer := zeroLayer()
	for k, v := range tph.counters.flat() {
		layer[k] = v
	}
	layer["serve.admit_ms.p50"] = quantile(st["admit"], 0.5)
	layer["serve.admit_ms.p99"] = quantile(st["admit"], 0.99)
	layer["serve.result_ms.p50"] = quantile(st["result"], 0.5)
	layer["serve.queue_wait_ms.p50"] = quantile(st["queue"], 0.5)
	layer["serve.queue_wait_ms.p99"] = quantile(st["queue"], 0.99)
	layer["serve.run_ms.p50"] = quantile(st["run"], 0.5)
	layer["serve.run_ms.p99"] = quantile(st["run"], 0.99)
	layer["serve.poll_gap_ms.p50"] = quantile(st["poll_gap"], 0.5)
	layer["serve.heap_kb_per_job"] = ratio(tph.heapKB, float64(tph.sum.done))
	layer["recon.residual_ratio"] = resid
	layer["driver.late_ms.p99"] = tph.sum.lateP99MS
	layer["driver.requests_per_job"] = tph.sum.requestsPerJob
	layer["latency.samples"] = float64(len(tph.sum.latMS))
	layer["failed_frac"] = rep.failedFrac()
	layer["runtime.gc_cycles"] = float64(tph.gcCycles)
	layer["runtime.alloc_mb"] = tph.allocMB
	te := serveE2E(tph, median(setups))
	layer["latency_p99_ms"] = rep.e2e["latency_p99_ms"]
	for _, m := range []string{"latency_p50_ms", "latency_p99_ms", "wall_s", "cpu_s"} {
		layer["trace.overhead."+m] = te[m] - rep.e2e[m]
	}
	if err := rep.finishTrace(tr, gz, layer); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveE2E computes the end-to-end metrics of a serving phase.
func serveE2E(ph phaseResult, setup float64) map[string]float64 {
	s := ph.sum
	return map[string]float64{
		"setup_s":        setup,
		"wall_s":         s.wall.Seconds(),
		"cpu_s":          ph.cpu.Seconds(),
		"peak_rss_mb":    peakRSSMB(),
		"latency_p50_ms": s.p50MS,
		"latency_p99_ms": s.p99MS,
		"throughput_rps": ratio(float64(s.done), s.wall.Seconds()),
		"slo_attain":     s.sloAttain,
	}
}

// expectation is the reference for one requested spec: its store key
// and the sha256 of a direct in-process compute.
type expectation struct {
	key string
	sum [sha256.Size]byte
	err error
}

// expectations computes the reference of every spec some done request
// used, on nproc workers.
func expectations(specs []serve.Request, sched []arrival, recs []reqRecord) (map[int]expectation, error) {
	keySt, err := store.Open("", store.Options{})
	if err != nil {
		return nil, err
	}
	var need []int
	seen := map[int]bool{}
	for i, a := range sched {
		if recs[i].out == outDone && !seen[a.spec] {
			seen[a.spec] = true
			need = append(need, a.spec)
		}
	}
	got := pool.Map(len(need), runtime.NumCPU(), func(i int) expectation {
		req := specs[need[i]]
		k, err := keyOf(keySt, req)
		if err != nil {
			return expectation{err: err}
		}
		body, err := directCompute(req)
		return expectation{key: k.String(), sum: sha256.Sum256(body), err: err}
	})
	out := make(map[int]expectation, len(need))
	for i, e := range got {
		if e.err != nil {
			return nil, e.err
		}
		out[need[i]] = e
	}
	return out, nil
}

// checkPhase applies the serving output checks to one phase: every
// result byte-identical to a direct compute and under its derived key,
// and the accounting identity done = cache hits + peer hits + computed
// holding both in the client's view and in the nodes' counters.
func (rep *report) checkPhase(ph phaseResult, sched []arrival, expect map[int]expectation) {
	mismatched, wrongKey := 0, 0
	for i, r := range ph.recs {
		if r.out != outDone {
			continue
		}
		e := expect[sched[i].spec]
		if r.sum != e.sum {
			mismatched++
		}
		if r.key != e.key {
			wrongKey++
		}
	}
	rep.checkN("result byte-identical to direct compute", mismatched, fmt.Sprintf("%d of %d results differ", mismatched, ph.sum.done))
	rep.checkN("result key matches derived key", wrongKey, fmt.Sprintf("%d of %d keys differ", wrongKey, ph.sum.done))
	s, m := ph.sum, ph.counters.metrics
	rep.check("accounting identity", s.done != s.cacheHits+s.peerHits+s.comp ||
		int(m["serve_jobs_completed"]) != s.done ||
		int(m["serve_jobs_computed"]) != s.comp ||
		int(m["serve_jobs_peer"]) != s.peerHits,
		fmt.Sprintf("done %d = cache hits %d + peer hits %d + computed %d; nodes report completed %.0f, peer %.0f, computed %.0f",
			s.done, s.cacheHits, s.peerHits, s.comp, m["serve_jobs_completed"], m["serve_jobs_peer"], m["serve_jobs_computed"]))
}
