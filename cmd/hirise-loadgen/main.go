// Command hirise-loadgen drives one or more hirise-served daemons with
// a seeded, open-loop, bursty workload and audits the outcome: every
// request must reach a terminal state, 429 backpressure is honored via
// Retry-After, transport failures fail over to the next target, and
// repeated specs are checked for byte-identical artifacts. It is the
// measurement half of the cluster's chaos drills.
//
// Usage:
//
//	hirise-loadgen -targets http://n1:8080,http://n2:8080 \
//	    -requests 500 -rate 100 -keyspace 24 -seed 7
//
// The interarrival gaps are bounded-Pareto distributed (shape -alpha,
// truncated at -burst-cap times the minimum gap) and normalized so the
// mean offered rate is exactly -rate. Latency quantiles are measured
// from each request's scheduled arrival, so queueing under overload is
// charged to the cluster rather than hidden by client slowdown.
//
// The exit status is 0 only for a clean run: zero lost requests, zero
// failed jobs, zero byte mismatches.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/hirise/internal/loadgen"
	"github.com/reprolab/hirise/internal/spec"
)

func main() {
	var (
		targets  = flag.String("targets", "http://127.0.0.1:8080", "comma-separated base URLs of hirise-served daemons")
		requests = flag.Int("requests", 100, "total requests to fire")
		rate     = flag.Float64("rate", 50, "mean offered load, requests/second")
		alpha    = flag.Float64("alpha", 1.5, "Pareto shape of the interarrival gaps (>1; smaller = burstier)")
		burstCap = flag.Float64("burst-cap", 50, "interarrival truncation, multiples of the minimum gap")
		keyspace = flag.Int("keyspace", 16, "number of distinct job specs to draw from")
		radix    = flag.Int("radix", 8, "switch radix of the generated load sweeps")
		seed     = flag.Uint64("seed", 1, "schedule PRNG seed; equal seeds replay the identical workload")
		timeout  = flag.Duration("request-timeout", 30*time.Second, "per-request terminal-state deadline")
		resub    = flag.Int("max-resubmits", 8, "per-request failover budget across targets")
		verify   = flag.Bool("verify", true, "check repeated specs for byte-identical artifacts")
		jsonOut  = flag.Bool("json", false, "emit the full report as JSON on stdout")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "hirise-loadgen: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	if err := checkFlags(*requests, *rate, *keyspace, *radix); err != nil {
		fmt.Fprintf(os.Stderr, "hirise-loadgen: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Targets:        strings.Split(*targets, ","),
		Requests:       *requests,
		Rate:           *rate,
		Alpha:          *alpha,
		BurstCap:       *burstCap,
		Keyspace:       *keyspace,
		Radix:          *radix,
		Seed:           *seed,
		RequestTimeout: *timeout,
		MaxResubmits:   *resub,
		SkipVerify:     !*verify,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hirise-loadgen: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "hirise-loadgen: %v\n", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("requests  %d at %.1f/s offered (%.1f/s achieved) over %.2fs\n",
			rep.Requests, rep.OfferedRate, rep.AchievedRate, rep.ElapsedSeconds)
		fmt.Printf("terminal  done %d (cache %d, peer %d, computed %d)  failed %d  cancelled %d  timeout %d  lost %d\n",
			rep.Done, rep.CacheHits, rep.PeerHits, rep.Computed,
			rep.Failed, rep.Cancelled, rep.TimedOut, rep.Lost)
		fmt.Printf("pressure  429s %d (%.1fs honored)  resubmits %d  mismatched %d\n",
			rep.Rejected429, rep.RetryAfterWaitSeconds, rep.Resubmits, rep.Mismatched)
		fmt.Printf("latency   mean %.3fs  p50 %.3fs  p90 %.3fs  p99 %.3fs  max %.3fs\n",
			rep.Latency.Mean, rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max)
	}
	if !rep.Clean() {
		fmt.Fprintln(os.Stderr, "hirise-loadgen: run NOT clean (lost, failed, or mismatched requests)")
		os.Exit(1)
	}
}

// checkFlags rejects workload sizes that must be positive, and a radix
// no server accepts. loadgen.Config reads zero as "use the default",
// which on the command line would silently replace what the user typed;
// a radix above spec.MaxRadix would send requests that all fail.
func checkFlags(requests int, rate float64, keyspace, radix int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"requests", requests}, {"keyspace", keyspace}, {"radix", radix}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s %d must be positive", f.name, f.v)
		}
	}
	if radix > spec.MaxRadix {
		return fmt.Errorf("-radix %d is above the largest radix %d", radix, spec.MaxRadix)
	}
	if !(rate > 0) {
		return fmt.Errorf("-rate %v must be positive", rate)
	}
	return nil
}
