// Command hirise-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hirise-bench -list
//	hirise-bench -run table4
//	hirise-bench -run fig10,fig11a
//	hirise-bench -run all [-quick] [-parallel N] [-seed N] [-warmup N] [-measure N]
//
// Each experiment prints as an aligned text table; figure experiments
// print their series as columns (one row per x-axis point), ready for
// plotting. Fidelity defaults to the EXPERIMENTS.md settings; -quick
// trades accuracy for speed.
//
// Experiments, and the simulations inside each experiment, run
// concurrently on up to -parallel workers. Every simulation derives its
// seed from the experiment ID and its position in the sweep — never from
// scheduling — so stdout is byte-identical at every -parallel value.
// Per-experiment timings go to stderr.
//
// -json FILE additionally writes every table as one machine-readable
// JSON array (stable field layout, byte-deterministic) regardless of
// -format; -cpuprofile/-memprofile/-exectrace/-runmetrics profile the
// bench process itself, and -heartbeat prints progress to stderr.
//
// -store DIR caches each experiment's rendered output in a
// content-addressed result store: reruns with the same id, fidelity,
// model version, and format replay from the cache byte-identically
// instead of resimulating.
//
// -perf FILE runs the arbitration hot-kernel microbenchmarks (switch
// arbitration loops, bit-level cross-point columns, end-to-end uniform
// simulations) and writes the measurements as JSON; -perf-baseline
// embeds a previous run for before/after comparison. The schema is
// documented in EXPERIMENTS.md. -perf-check NEW BASELINE compares two
// such files and exits non-zero on regression: any allocs/op increase
// fails outright, while ns/op slowdowns beyond -perf-tolerance fail
// unless -perf-warn-only downgrades them to warnings.
//
// -converge-stop lets every simulation end early once the MSER
// steady-state detector converges on its delivered-packet rate. Output
// stays deterministic but differs from full-length runs; the -store key
// records the flag, so the two variants never share cache entries.
//
// SIGINT/SIGTERM cancels the run: simulations stop within one sweep
// point, the experiments that already finished are still flushed in id
// order, and partially-written -json and profile side files are
// removed before the process exits non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/store"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs, or \"all\"")
		list     = flag.Bool("list", false, "list available experiments and exit")
		quick    = flag.Bool("quick", false, "reduced fidelity for a fast smoke run")
		seed     = flag.Uint64("seed", 0, "override random seed (the engine remaps 0 to 1)")
		warmup   = flag.Int64("warmup", 0, "override warmup cycles (0 keeps the built-in default)")
		measure  = flag.Int64("measure", 0, "override measurement cycles (0 keeps the built-in default)")
		format   = flag.String("format", "text", "output format: text | csv | json")
		plotIt   = flag.Bool("plot", false, "draw figure experiments as ASCII charts (text format only)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent experiments and simulations per experiment; 1 forces serial. Output is byte-identical at any value")
		jsonOut  = flag.String("json", "", "also write the tables as one JSON array to this file, regardless of -format")
		storeDir = flag.String("store", "",
			"cache rendered experiment results in this directory (content-addressed by id, fidelity, model version, and format)")

		perfOut = flag.String("perf", "",
			"run the arbitration hot-kernel microbenchmarks and write them as JSON to this file (schema in EXPERIMENTS.md), then exit")
		perfBase = flag.String("perf-baseline", "",
			"embed a previous -perf run from this file as the baseline for before/after comparison")
		perfCheck = flag.Bool("perf-check", false,
			"compare two -perf JSON files (args: NEW BASELINE) and exit non-zero on regression, then exit")
		perfTol = flag.Float64("perf-tolerance", 0.25,
			"fractional ns/op slowdown -perf-check tolerates before flagging (allocs/op increases always fail)")
		perfWarnOnly = flag.Bool("perf-warn-only", false,
			"-perf-check reports ns/op regressions as warnings instead of failing (allocs/op increases still fail)")

		convStop = flag.Bool("converge-stop", false,
			"let each simulation stop early once its delivered-packet rate reaches steady state (MSER); results stay deterministic but differ from full-length runs, and the store key records the flag")

		// Host-side profiling of the bench process itself.
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
		runmetrics = flag.String("runmetrics", "", "write a runtime/metrics JSON snapshot to this file at exit")
		heartbeat  = flag.Duration("heartbeat", 0, "print progress to stderr at this interval (0 = off)")
	)
	flag.Parse()

	if *list {
		for _, id := range hirise.Experiments() {
			fmt.Println(id)
		}
		return
	}
	if *perfCheck {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: hirise-bench -perf-check NEW BASELINE")
			os.Exit(2)
		}
		if err := runPerfCheck(os.Stdout, flag.Arg(0), flag.Arg(1), *perfTol, *perfWarnOnly); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfOut != "" {
		if err := runPerf(*perfOut, *perfBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfBase != "" {
		fmt.Fprintln(os.Stderr, "-perf-baseline requires -perf")
		os.Exit(2)
	}
	if *run == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, csv, or json)\n", *format)
		os.Exit(2)
	}

	opts := hirise.DefaultExperimentOpts()
	if *quick {
		opts = hirise.QuickExperimentOpts()
	}
	// Apply an override whenever its flag appeared on the command line, so
	// explicit zeroes reach the engine too. The engine treats zero as
	// "unset" (sim.Config.Defaults remaps Seed 0 to 1 and restores the
	// fidelity's windows), so an explicit zero selects the default — say
	// so rather than silently ignoring the flag.
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "seed":
			opts.Seed = *seed
			if *seed == 0 {
				fmt.Fprintln(os.Stderr, "note: -seed 0 means unset and is remapped to 1 by the simulator")
			}
		case "warmup":
			opts.Warmup = *warmup
			if *warmup == 0 {
				fmt.Fprintln(os.Stderr, "note: -warmup 0 means unset and falls back to the publication default, even with -quick")
			}
		case "measure":
			opts.Measure = *measure
			if *measure == 0 {
				fmt.Fprintln(os.Stderr, "note: -measure 0 means unset and falls back to the publication default, even with -quick")
			}
		}
	})
	if *warmup < 0 {
		fmt.Fprintf(os.Stderr, "-warmup %d is negative\n", *warmup)
		os.Exit(2)
	}
	if *measure < 0 {
		fmt.Fprintf(os.Stderr, "-measure %d is negative\n", *measure)
		os.Exit(2)
	}
	opts.Workers = *parallel
	opts.ConvergeStop = *convStop

	ids, err := resolveIDs(*run, hirise.Experiments())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintf(os.Stderr, "valid ids: %s\n", strings.Join(hirise.Experiments(), ", "))
		os.Exit(2)
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// SIGINT/SIGTERM cancels ctx; the simulators poll it between cycles
	// and the pool skips pending sweep points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProfiles, err := hirise.StartProfiles(hirise.ProfileConfig{
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		ExecTrace: *exectrace, RuntimeMetrics: *runmetrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var jsonW io.Writer
	var jsonF *os.File
	if *jsonOut != "" {
		jsonF, err = os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		jsonW = jsonF
	}

	err = runExperiments(ctx, st, os.Stdout, os.Stderr, jsonW, ids, opts, *format, *plotIt, *heartbeat)
	if jsonF != nil {
		if cerr := jsonF.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if errors.Is(err, context.Canceled) {
		// Completed experiments were already flushed in id order; the
		// side files stop mid-write on cancellation, so remove them
		// rather than leave truncated artifacts behind.
		removePartials(os.Stderr, *jsonOut, *cpuprofile, *memprofile, *exectrace, *runmetrics)
		fmt.Fprintln(os.Stderr, "hirise-bench: interrupted")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// removePartials deletes the side files an interrupted run may have
// left half-written (missing files are fine).
func removePartials(errw io.Writer, paths ...string) {
	for _, p := range paths {
		if p == "" {
			continue
		}
		if err := os.Remove(p); err == nil {
			fmt.Fprintf(errw, "removed partial %s\n", p)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(errw, "removing partial %s: %v\n", p, err)
		}
	}
}

// resolveIDs expands and validates the -run specification against the
// experiment registry before anything runs, so an unknown id aborts with
// a clean usage error instead of stopping mid-run with partial output.
// Empty elements are skipped and duplicates collapse to their first
// occurrence. The spec "all" expands to every experiment.
func resolveIDs(spec string, valid []string) ([]string, error) {
	if strings.TrimSpace(spec) == "all" {
		return valid, nil
	}
	known := make(map[string]bool, len(valid))
	for _, id := range valid {
		known[id] = true
	}
	var ids []string
	seen := make(map[string]bool)
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", spec)
	}
	return ids, nil
}

// runExperiments runs the experiments on at most opts.Workers
// concurrent workers, each rendering into a private buffer, and writes
// the buffers to w strictly in id order — streaming each one as soon as
// it and all of its predecessors are ready, so long runs show progress
// while concurrent runs still write exactly the bytes serial runs
// write. Per-experiment timings go to errw alongside the corresponding
// output; hb > 0 also writes a progress heartbeat to errw. When jsonW
// is non-nil, every table is additionally serialized there as one JSON
// array in id order after all experiments finish. On failure the
// outputs preceding the first failing id have been written (matching
// what a serial run would have printed) and that id's error is
// returned.
func runExperiments(ctx context.Context, st *store.Store, w, errw, jsonW io.Writer, ids []string, opts hirise.ExperimentOpts, format string, plotIt bool, hb time.Duration) error {
	type rendered struct {
		out    []byte
		tb     *hirise.ExperimentTable
		dur    time.Duration
		cached bool
		err    error
	}
	done := make([]chan rendered, len(ids))
	for i := range done {
		done[i] = make(chan rendered, 1)
	}
	var completed atomic.Int64
	stopHB := hirise.Heartbeat(errw, hb, func() string {
		return fmt.Sprintf("%d/%d experiments done", completed.Load(), len(ids))
	})
	defer stopHB()
	go pool.Do(len(ids), opts.Workers, func(i int) {
		start := time.Now()
		var buf bytes.Buffer
		tb, cached, err := renderOne(ctx, st, &buf, ids[i], opts, format, plotIt)
		completed.Add(1)
		done[i] <- rendered{out: buf.Bytes(), tb: tb, dur: time.Since(start), cached: cached, err: err}
	})
	tables := make([]*hirise.ExperimentTable, 0, len(ids))
	for i := range ids {
		r := <-done[i]
		if r.err != nil {
			return r.err
		}
		w.Write(r.out)
		tables = append(tables, r.tb)
		note := ""
		if r.cached {
			note = ", cached"
		}
		fmt.Fprintf(errw, "(%s took %.1fs%s)\n", ids[i], r.dur.Seconds(), note)
	}
	if jsonW != nil {
		enc := json.NewEncoder(jsonW)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}
	return nil
}

// cachedRender is the store envelope for one rendered experiment: the
// exact output bytes plus the table itself, so -json replay needs no
// resimulation either.
type cachedRender struct {
	Out   []byte                  `json:"out"`
	Table *hirise.ExperimentTable `json:"table"`
}

// renderOne renders one experiment, through the store when one is
// configured. The key covers everything that shapes the output —
// experiment id, fidelity (hirise.ExperimentCacheKey), model version,
// format, and plotting — and deliberately not Workers, since output is
// byte-identical at any parallelism.
func renderOne(ctx context.Context, st *store.Store, buf *bytes.Buffer, id string, opts hirise.ExperimentOpts, format string, plotIt bool) (*hirise.ExperimentTable, bool, error) {
	if st == nil {
		tb, err := renderFresh(ctx, buf, id, opts, format, plotIt)
		return tb, false, err
	}
	key, err := st.KeyOf("bench", struct {
		ID     string                    `json:"id"`
		Opts   hirise.ExperimentCacheKey `json:"opts"`
		Format string                    `json:"format"`
		Plot   bool                      `json:"plot"`
	}{id, opts.CacheKey(), format, plotIt})
	if err != nil {
		return nil, false, err
	}
	data, hit, err := st.GetOrCompute(ctx, key, func(cctx context.Context) ([]byte, error) {
		var b bytes.Buffer
		tb, err := renderFresh(cctx, &b, id, opts, format, plotIt)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cachedRender{Out: b.Bytes(), Table: tb})
	})
	if err != nil {
		return nil, false, err
	}
	var env cachedRender
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false, fmt.Errorf("%s: decoding stored result: %w", id, err)
	}
	buf.Write(env.Out)
	return env.Table, hit, nil
}

func renderFresh(ctx context.Context, buf *bytes.Buffer, id string, opts hirise.ExperimentOpts, format string, plotIt bool) (*hirise.ExperimentTable, error) {
	tb, err := hirise.RunExperimentCtx(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	switch format {
	case "csv":
		return tb, tb.WriteCSV(buf)
	case "json":
		return tb, tb.WriteJSON(buf)
	}
	tb.Fprint(buf)
	if plotIt {
		ok, err := tb.RenderPlot(buf, 72, 20)
		if err != nil {
			return nil, err
		}
		if ok {
			fmt.Fprintln(buf)
		}
	}
	return tb, nil
}
