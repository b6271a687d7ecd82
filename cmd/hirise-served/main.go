// Command hirise-served runs the experiment job service: an HTTP API
// over the deterministic simulation engine, backed by the
// content-addressed result store.
//
// Usage:
//
//	hirise-served -addr :8080 -store /var/cache/hirise
//
// Submit jobs with POST /jobs, watch them with GET /jobs/{id} and the
// NDJSON stream at GET /jobs/{id}/events, fetch bodies from GET
// /jobs/{id}/result, and cancel with DELETE /jobs/{id}. Identical
// submissions are served from the store byte-identically; concurrent
// identical submissions share one computation. Running jobs expose a
// windowed progress time series at GET /jobs/{id}/telemetry. /healthz
// and /metrics expose liveness and Prometheus-format counters.
//
// Several daemons form a serving cluster with static membership:
//
//	hirise-served -addr :8081 -store /var/cache/h1 -peer-id n1 \
//	    -peers n1=http://host1:8081,n2=http://host2:8081
//
// Each store key has a home node on a consistent-hash ring; on a local
// store miss the daemon fetches the result from the home node and its
// ring siblings (with hedging, bounded retries, and per-peer circuit
// breakers) before computing locally. Every peer failure degrades to
// local compute — clustering can only avoid work, never add failure
// modes. GET /cluster exposes the peer and breaker state.
//
// SIGINT/SIGTERM starts a graceful drain: the listener stops accepting
// requests, queued and running jobs finish (or, past -drain-timeout,
// are cancelled at the simulators' next cycle check), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/hirise/internal/cluster"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
	"github.com/reprolab/hirise/internal/version"
)

// parsePeers turns "n1=http://host1:8081,n2=http://host2:8081" into the
// cluster membership. The self entry may omit its URL ("n1=" or a bare
// "n1"): a node never fetches from itself.
func parsePeers(spec, self string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, _ := strings.Cut(entry, "=")
		if id == "" {
			return nil, fmt.Errorf("peer entry %q has no id", entry)
		}
		if url == "" && id != self {
			return nil, fmt.Errorf("peer %s has no URL (only the self entry may omit it)", id)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: url})
	}
	return peers, nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		storeDir = flag.String("store", "", "result store directory (empty = in-memory cache only)")
		queue    = flag.Int("queue", 64, "max queued jobs before submissions get 429")
		workers  = flag.Int("workers", 1, "jobs executed concurrently")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations per job; output is byte-identical at any value")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long a shutdown waits for in-flight jobs before cancelling them")
		jobTimeout = flag.Duration("job-timeout", 0,
			"per-job wall-clock limit; jobs past it end in the \"timeout\" state (0 = unlimited)")
		teleWindow = flag.Duration("telemetry-window", 0,
			"per-job telemetry sampling cadence for /jobs/{id}/telemetry (0 = 250ms default, negative disables)")
		heartbeat = flag.Duration("heartbeat", 0,
			"idle events-stream heartbeat cadence (0 = 10s default, negative disables)")

		peerID = flag.String("peer-id", "", "this node's cluster member ID (empty = clustering off)")
		peers  = flag.String("peers", "", "static cluster membership as id=url,id=url,... (must include -peer-id)")
		hedge  = flag.Duration("hedge-delay", 100*time.Millisecond,
			"delay before a peer fetch is hedged to the next candidate (negative disables hedging)")
		attemptTimeout = flag.Duration("attempt-timeout", 2*time.Second, "per-attempt peer fetch timeout")
		retries        = flag.Int("peer-retries", 1, "extra attempts per peer after a failed fetch")
		brkThreshold   = flag.Int("breaker-threshold", 3, "consecutive failures that open a peer's circuit breaker")
		brkCooldown    = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker wait before a trial request")
		probeInterval  = flag.Duration("probe-interval", 2*time.Second,
			"peer /healthz probe cadence (negative disables probing)")
		clusterSeed = flag.Uint64("cluster-seed", 1, "seed for the peer layer's deterministic retry jitter")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "hirise-served: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	// serve.New rejects these too, but only after the store is open and
	// the cluster started; checking here exits before either exists.
	for _, f := range []struct {
		name string
		v    int
	}{{"queue", *queue}, {"workers", *workers}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "hirise-served: -%s %d must not be negative\n", f.name, f.v)
			os.Exit(2)
		}
	}

	st, err := store.Open(*storeDir, store.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hirise-served: open store: %v\n", err)
		os.Exit(1)
	}

	var cl *cluster.Cluster
	if *peerID != "" {
		members, err := parsePeers(*peers, *peerID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hirise-served: -peers: %v\n", err)
			os.Exit(2)
		}
		cl, err = cluster.New(cluster.Config{
			Self:             *peerID,
			Peers:            members,
			AttemptTimeout:   *attemptTimeout,
			Retries:          *retries,
			HedgeDelay:       *hedge,
			BreakerThreshold: *brkThreshold,
			BreakerCooldown:  *brkCooldown,
			ProbeInterval:    *probeInterval,
			Seed:             *clusterSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hirise-served: cluster: %v\n", err)
			os.Exit(2)
		}
	} else if *peers != "" {
		fmt.Fprintln(os.Stderr, "hirise-served: -peers given without -peer-id")
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		Store:             st,
		QueueDepth:        *queue,
		Workers:           *workers,
		SimWorkers:        *parallel,
		JobTimeout:        *jobTimeout,
		TelemetryWindow:   *teleWindow,
		HeartbeatInterval: *heartbeat,
		Cluster:           cl,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hirise-served: %v\n", err)
		os.Exit(1)
	}

	httpSrv := serve.NewHTTPServer(*addr, srv.Handler(), serve.HTTPTimeouts{})
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if cl != nil {
		fmt.Fprintf(os.Stderr, "hirise-served: listening on %s as cluster node %s (store %q, model %s)\n",
			*addr, *peerID, *storeDir, version.Model)
	} else {
		fmt.Fprintf(os.Stderr, "hirise-served: listening on %s (store %q, model %s)\n",
			*addr, *storeDir, version.Model)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		stop() // a second signal kills the process immediately
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "hirise-served: %v\n", err)
		os.Exit(1)
	}

	fmt.Fprintln(os.Stderr, "hirise-served: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener first so no new jobs arrive, then drain workers,
	// then stop the peer layer (running jobs may peer-fetch until the end).
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hirise-served: http shutdown: %v\n", err)
	}
	drainErr := srv.Drain(shutdownCtx)
	if cl != nil {
		cl.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "hirise-served: drain timed out, jobs cancelled: %v\n", drainErr)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "hirise-served: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hirise-served: drained cleanly")
}
