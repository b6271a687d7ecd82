package loadgen

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/leakcheck"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

// startServeNode stands up one plain (clusterless) job daemon for the
// generator to drive.
func startServeNode(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.SimWorkers == 0 {
		cfg.SimWorkers = 1
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return ts
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("Run with no targets did not error")
	}
	if _, err := Run(context.Background(), Config{Targets: []string{"x"}, Alpha: 0.9}); err == nil {
		t.Error("Run with alpha <= 1 did not error")
	}
}

// TestRunSingleNode drives a healthy daemon well within capacity: every
// request must finish done, the keyspace must collapse onto cache hits,
// and the byte-identity check must pass.
// TestLatencyQuantilesFromRawSamples pins the report's latency summary
// to nearest-rank quantiles of the raw samples: for 1..100 ms, shuffled,
// the quantiles stay distinct and exact instead of collapsing into one
// histogram bin.
func TestLatencyQuantilesFromRawSamples(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64((i*37)%100+1) / 1000 // a permutation of 1..100 ms
	}
	got := latencyQuantiles(samples)
	want := Quantiles{Mean: 0.0505, P50: 0.050, P90: 0.090, P99: 0.099, Max: 0.100}
	if math.Abs(got.Mean-want.Mean) > 1e-12 || got.P50 != want.P50 || got.P90 != want.P90 ||
		got.P99 != want.P99 || got.Max != want.Max {
		t.Fatalf("latencyQuantiles = %+v, want %+v", got, want)
	}
	if one := latencyQuantiles([]float64{0.0016}); one.P50 != 0.0016 || one.P99 != 0.0016 || one.Mean != 0.0016 {
		t.Fatalf("single sample: %+v", one)
	}
	if empty := latencyQuantiles(nil); empty != (Quantiles{}) {
		t.Fatalf("no samples: %+v", empty)
	}
}

func TestRunSingleNode(t *testing.T) {
	leakcheck.Check(t)
	ts := startServeNode(t, serve.Config{Workers: 2})

	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Requests: 40, Rate: 400, Keyspace: 4, Seed: 3,
		RequestTimeout: 30 * time.Second, PollInterval: 5 * time.Millisecond,
		TelemetryWindow: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 40 || !rep.Clean() {
		t.Fatalf("report = %+v, want 40 done and clean", rep)
	}
	if got := rep.CacheHits + rep.PeerHits + rep.Computed; got != rep.Done {
		t.Errorf("provenance sums to %d, want %d", got, rep.Done)
	}
	// 4 distinct specs: at most 4 computations (concurrent duplicates
	// share one via the store's singleflight), everything else cached.
	if rep.Computed == 0 || rep.Computed > 4 {
		t.Errorf("computed = %d, want 1..4 for keyspace 4", rep.Computed)
	}
	if rep.PeerHits != 0 {
		t.Errorf("peer hits = %d on a clusterless node", rep.PeerHits)
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max <= 0 {
		t.Errorf("latency quantiles inconsistent: %+v", rep.Latency)
	}
	if rep.Telemetry == nil {
		t.Fatal("telemetry missing from report")
	}
	var submitted float64
	for _, v := range rep.Telemetry.Series["loadgen.submitted"] {
		submitted += v
	}
	if int(submitted) < rep.Requests {
		t.Errorf("telemetry records %v submissions, want >= %d", submitted, rep.Requests)
	}
}

// TestRunOverloadHonors429 pushes a burst far above a QueueDepth-1
// daemon's intake: the generator must absorb the 429s by honoring
// Retry-After and still land every request in a terminal state — the
// bounded-queue contract seen from the client side.
func TestRunOverloadHonors429(t *testing.T) {
	leakcheck.Check(t)
	ts := startServeNode(t, serve.Config{Workers: 1, QueueDepth: 1})

	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Requests: 12, Rate: 2000, Keyspace: 12, Seed: 5,
		RequestTimeout: 60 * time.Second, PollInterval: 5 * time.Millisecond,
		TelemetryWindow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 12 || !rep.Clean() {
		t.Fatalf("report = %+v, want 12 done and clean", rep)
	}
	if rep.Rejected429 == 0 {
		t.Error("overload run saw no 429s; queue bound not exercised")
	}
	if rep.RetryAfterWaitSeconds <= 0 {
		t.Error("429s were seen but no Retry-After wait was honored")
	}
}
