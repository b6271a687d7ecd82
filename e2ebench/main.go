// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload per invocation and prints, as the last line of standard
// output, one JSON object with the run's output-check verdict and its
// metrics:
//
//	e2ebench --workload sim_campaign|serve_hot|serve_cold --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (what a researcher
// waiting for a campaign's tables, or a client waiting for a served job,
// sees). With --trace 1 the run measures once untraced and once traced
// and prints the per-layer metrics: spans around every call into a
// layer, counter deltas, layer probes, a CPU profile bucketed by
// package, and the tracing overhead. Traced runs also write their spans
// and profile under <root>/traces.
//
// Every number is taken from outside the program, by timing calls into
// the layers' public functions. run.sh builds the benchmark from the
// checkout and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// metricDef describes one reported metric. BENCHMARK.json lists the
// same names, units and directions (a self-test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are printed by untraced runs, on every workload. The
// latency tail (latency_p99_ms) is measured the same way but reported
// with the per-layer metrics: on a 2-vCPU host with other tenants its
// run-to-run spread is set by host stalls of 5-20 ms and is wider than
// any bound an end-to-end metric may carry.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"slo_attain", "ratio", "higher"},
}

// layerMetrics are printed by traced runs, on every workload; a layer a
// workload leaves idle reports 0.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"latency_p99_ms", "ms", "lower"},
		{"experiments.fig10.wall_s", "s", "lower"},
		{"experiments.table4-ci.wall_s", "s", "lower"},
		{"experiments.sched-shootout.wall_s", "s", "lower"},
		{"experiments.fabric.wall_s", "s", "lower"},
		{"sim.run.ns_per_cycle", "ns", "lower"},
		{"core.arbitrate.ns", "ns", "lower"},
		{"crossbar.arbitrate.ns", "ns", "lower"},
		{"sim.batch.ns_per_replica_cycle", "ns", "lower"},
		{"sim.voq.ns_per_cycle", "ns", "lower"},
		{"sched.islip.ns", "ns", "lower"},
		{"sched.wavefront.ns", "ns", "lower"},
		{"fabric.run.ns_per_router_cycle", "ns", "lower"},
		{"serve.admit_ms.p50", "ms", "lower"},
		{"serve.admit_ms.p99", "ms", "lower"},
		{"serve.result_ms.p50", "ms", "lower"},
		{"serve.queue_wait_ms.p50", "ms", "lower"},
		{"serve.queue_wait_ms.p99", "ms", "lower"},
		{"serve.run_ms.p50", "ms", "lower"},
		{"serve.run_ms.p99", "ms", "lower"},
		{"serve.poll_gap_ms.p50", "ms", "lower"},
		{"serve.heap_kb_per_job", "KiB", "lower"},
		{"store.mem_hits", "count", "higher"},
		{"store.disk_hits", "count", "lower"},
		{"store.misses", "count", "lower"},
		{"store.shared", "count", "higher"},
		{"store.hit_ratio", "ratio", "higher"},
		{"cluster.fetches", "count", "lower"},
		{"cluster.peer_hits", "count", "higher"},
		{"cluster.not_found", "count", "lower"},
		{"cluster.failures", "count", "lower"},
		{"cluster.hedges", "count", "lower"},
		{"cluster.hedge_wins", "count", "higher"},
		{"cluster.breaker_opens", "count", "lower"},
		{"cluster.peer_hit_ratio", "ratio", "higher"},
		{"cluster.hedge_waste", "ratio", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
	}
	for _, mod := range append(append([]string(nil), cpuModules...), "other") {
		m = append(m, metricDef{"cpu_share." + mod, "ratio", "lower"})
	}
	return append(m,
		metricDef{"driver.late_ms.p99", "ms", "lower"},
		metricDef{"driver.requests_per_job", "count", "lower"},
		metricDef{"latency.samples", "count", "higher"},
		metricDef{"failed_frac", "ratio", "lower"},
		metricDef{"recon.residual_ratio", "ratio", "lower"},
		metricDef{"trace.overhead.latency_p50_ms", "ms", "lower"},
		metricDef{"trace.overhead.latency_p99_ms", "ms", "lower"},
		metricDef{"trace.overhead.wall_s", "s", "lower"},
		metricDef{"trace.overhead.cpu_s", "s", "lower"},
	)
}()

func zeroLayer() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// report collects one run's verdicts and metrics.
type report struct {
	attempted int
	failedOps int
	checks    []checkResult
	invalid   []string
	notes     []string
	e2e       map[string]float64
	layer     map[string]float64
	traceBase string
}

// checkResult is one output check; failures counts the failed items.
type checkResult struct {
	name     string
	failures int
	detail   string
}

func (r *report) check(name string, failed bool, detail string) {
	n := 0
	if failed {
		n = 1
	}
	r.checkN(name, n, detail)
}

func (r *report) checkN(name string, failures int, detail string) {
	r.checks = append(r.checks, checkResult{name, failures, detail})
}

func (r *report) failed() int {
	n := r.failedOps
	for _, c := range r.checks {
		n += c.failures
	}
	return n
}

// failedFrac is failed operations plus failed output checks, over the
// operations attempted.
func (r *report) failedFrac() float64 { return ratio(float64(r.failed()), float64(r.attempted)) }

// finishTrace runs the layer probes under the tracer, buckets the CPU
// profile, writes the trace out and installs the per-layer metrics.
func (r *report) finishTrace(tr *tracer, profile []byte, layer map[string]float64) error {
	probed, err := runProbes(tr)
	if err != nil {
		return err
	}
	for k, v := range probed {
		layer[k] = v
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for k, v := range shares {
		layer["cpu_share."+k] = v
	}
	r.layer = layer
	return tr.write(r.traceBase, profile)
}

// cpuProfile is an in-memory CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable lines and then the result object as
// the last line of stdout.
func (r *report) print(traced bool) error {
	correct := len(r.invalid) == 0
	for _, c := range r.checks {
		verdict := "ok"
		if c.failures > 0 {
			verdict = "FAIL"
			correct = false
		}
		fmt.Printf("check %s: %s (%s)\n", c.name, verdict, c.detail)
	}
	for _, why := range r.invalid {
		fmt.Printf("invalid run: %s\n", why)
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layer
	}
	out := resultOut{Correct: correct, Attempted: r.attempted, Failed: r.failed(), Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %s = %.6g %s\n", d.name, v, d.unit)
	}
	if traced {
		fmt.Printf("trace written to %s.trace.json and %s.cpu.pb.gz\n", r.traceBase, r.traceBase)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: sim_campaign, serve_hot or serve_cold")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 runs untraced and traced and prints the per-layer metrics")
		root     = flag.String("root", ".bench_build/e2ebench", "directory for stores, temp files and traces")
		record   = flag.Bool("record-digests", false, "print the sim_campaign table digests of this build as Go source and exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *record); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, root string, record bool) error {
	ctx := context.Background()
	if record {
		return recordDigests(ctx)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	tmp := filepath.Join(root, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	traceBase := filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d", workload, seed))
	var rep *report
	var err error
	switch workload {
	case "sim_campaign":
		rep, err = runCampaign(ctx, seed, seconds, trace == 1, traceBase)
	case serveHot.name:
		rep, err = runServe(ctx, serveHot, seed, seconds, trace == 1, tmp, traceBase)
	case serveCold.name:
		rep, err = runServe(ctx, serveCold, seed, seconds, trace == 1, tmp, traceBase)
	default:
		return fmt.Errorf("unknown workload %q (want sim_campaign, serve_hot or serve_cold)", workload)
	}
	if err != nil {
		return err
	}
	return rep.print(trace == 1)
}
