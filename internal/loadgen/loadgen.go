// Package loadgen is the chaos-proving load generator for the serving
// cluster: an open-loop driver that fires job submissions at a
// precomputed, seeded schedule with bounded-Pareto interarrivals, rides
// every request to a terminal state (honoring 429 Retry-After hints,
// failing over across targets on transport errors), verifies that
// resubmitted specs return byte-identical artifacts, and reports
// latency quantiles measured from each request's *scheduled* arrival —
// so queueing delay under overload is charged to the system, not hidden
// by a slowed-down client (the coordinated-omission trap).
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/tele"
)

// Config parameterizes one load-generation run. Zero values select the
// documented defaults; Targets is required.
type Config struct {
	// Targets are the base URLs of the hirise-served daemons to drive.
	// Requests round-robin their first attempt across targets and fail
	// over to the next one on transport errors.
	Targets []string
	// Requests is the total number of requests to fire (default 100).
	Requests int
	// Rate is the mean offered load in requests per second (default
	// 50). The schedule's interarrival gaps are bounded-Pareto
	// distributed with this mean — bursty, but exactly this rate over
	// the run.
	Rate float64
	// Alpha is the Pareto shape parameter, > 1 (default 1.5; smaller is
	// burstier).
	Alpha float64
	// BurstCap truncates interarrival gaps at this multiple of the
	// minimum gap (default 50).
	BurstCap float64
	// Keyspace is the number of distinct job specs drawn from (default
	// 16). Smaller keyspaces exercise the store and peer-fetch paths
	// harder; Keyspace 1 makes every request after the first a cache or
	// peer hit.
	Keyspace int
	// Radix is the switch radix of the generated load sweeps (default
	// 8; keep small so each distinct job is cheap).
	Radix int
	// Seed drives the schedule and spec-choice PRNG (default 1). Equal
	// seeds replay the identical workload.
	Seed uint64
	// MaxResubmits bounds how many times one request may fail over to
	// another target after transport errors (default 8). The 429 path
	// is not counted: it is bounded by RequestTimeout instead.
	MaxResubmits int
	// RequestTimeout is each request's terminal-state deadline measured
	// from its scheduled arrival (default 30s). A request that is not
	// terminal by then is counted Lost.
	RequestTimeout time.Duration
	// PollInterval is the status-poll cadence (default 20ms).
	PollInterval time.Duration
	// TelemetryWindow is the cadence of the run's windowed telemetry
	// tracks (default 250ms; negative disables).
	TelemetryWindow time.Duration
	// SkipVerify disables the result byte-identity check (a GET
	// /result + hash per completed job).
	SkipVerify bool
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

func (cfg *Config) withDefaults() error {
	if len(cfg.Targets) == 0 {
		return errors.New("loadgen: no targets")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 50
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.5
	}
	if cfg.Alpha <= 1 {
		return fmt.Errorf("loadgen: alpha %v must be > 1", cfg.Alpha)
	}
	if cfg.BurstCap <= 1 {
		cfg.BurstCap = 50
	}
	if cfg.Keyspace <= 0 {
		cfg.Keyspace = 16
	}
	if cfg.Radix == 0 {
		cfg.Radix = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxResubmits == 0 {
		cfg.MaxResubmits = 8
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.TelemetryWindow == 0 {
		cfg.TelemetryWindow = 250 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return nil
}

// Quantiles summarizes the end-to-end latency distribution in seconds.
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// latencyQuantiles summarizes raw latency samples: their mean, max and
// nearest-rank P50/P90/P99 (the q-quantile is the smallest sample with
// at least ceil(q·n) samples at or below it). It sorts samples in place.
func latencyQuantiles(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, x := range samples {
		sum += x
	}
	rank := func(q float64) float64 {
		r := int(math.Ceil(q * float64(len(samples))))
		return samples[max(r, 1)-1]
	}
	return Quantiles{
		Mean: sum / float64(len(samples)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  samples[len(samples)-1],
	}
}

// Telemetry is the run's windowed time series: per-window submission,
// completion, and rejection counts, plus the in-flight level at each
// window close. Bounded by tele's decimation for arbitrarily long runs.
type Telemetry struct {
	WindowMS    int64                `json:"window_ms"`
	WindowTicks int64                `json:"window_ticks"`
	Series      map[string][]float64 `json:"series"`
}

// Report is the outcome of one Run. Every scheduled request is
// accounted for in exactly one of Done, Failed, Cancelled, TimedOut, or
// Lost.
type Report struct {
	Targets  []string `json:"targets"`
	Requests int      `json:"requests"`

	// Terminal accounting.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	TimedOut  int `json:"timed_out"`
	// Lost counts requests that never reached an observed terminal
	// state: the resubmission budget ran out or RequestTimeout expired.
	Lost int `json:"lost"`

	// Provenance of Done results, as reported by the daemons.
	CacheHits int `json:"cache_hits"`
	PeerHits  int `json:"peer_hits"`
	Computed  int `json:"computed"`
	// Mismatched counts Done results whose bytes differed from an
	// earlier result for the same spec — must be zero.
	Mismatched int `json:"mismatched"`

	// Backpressure accounting.
	Rejected429           int     `json:"rejected_429"`
	RetryAfterWaitSeconds float64 `json:"retry_after_wait_seconds"`
	Resubmits             int     `json:"resubmits"`

	Latency        Quantiles  `json:"latency_seconds"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
	OfferedRate    float64    `json:"offered_rate"`
	AchievedRate   float64    `json:"achieved_rate"`
	Telemetry      *Telemetry `json:"telemetry,omitempty"`
}

// Clean reports whether the run proves the cluster healthy: every
// request terminal, none lost or failed, and every repeated spec
// byte-identical.
func (r *Report) Clean() bool {
	return r.Lost == 0 && r.Failed == 0 && r.Mismatched == 0
}

// outcome is one request's result, sent from its worker goroutine to
// the aggregator.
type outcome struct {
	state    string
	cacheHit bool
	source   string
	latency  time.Duration
	mismatch bool
}

// gen is the per-run state shared by the dispatcher, workers, and
// aggregator.
type gen struct {
	cfg    Config
	start  time.Time
	bodies [][]byte // pre-marshalled spec JSON, one per keyspace slot

	// Counters read by the telemetry sampler (and bumped by workers).
	submitted   atomic.Int64
	terminal    atomic.Int64
	rejected429 atomic.Int64
	resubmits   atomic.Int64
	honoredMS   atomic.Int64
	inflight    atomic.Int64

	// hashes maps spec index -> sha256 of the first result seen for it,
	// for the byte-identity check.
	hashes sync.Map
}

// spec is the job submitted for keyspace slot k: a deliberately cheap
// 2-D load sweep whose PRNG seed varies with k, so distinct slots have
// distinct store keys but identical cost.
func spec(k, radix int) serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: "2d", Radix: radix,
		Loads: []float64{0.1}, Warmup: 200, Measure: 500,
		Seed: uint64(1000 + k),
	}
}

// Run executes the configured load against the targets and blocks until
// every scheduled request is accounted for (or ctx is cancelled, which
// counts the stragglers Lost). The only errors are configuration
// errors; an unhealthy cluster surfaces in the Report instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	g := &gen{cfg: cfg, bodies: make([][]byte, cfg.Keyspace)}
	for k := range g.bodies {
		b, err := json.Marshal(spec(k, cfg.Radix))
		if err != nil {
			return nil, err
		}
		g.bodies[k] = b
	}
	sched := buildSchedule(cfg)

	var sampler *tele.Sampler
	if cfg.TelemetryWindow > 0 {
		sampler = tele.NewSampler(1, tele.DefaultMaxWindows)
		sampler.CounterFunc("loadgen.submitted", g.submitted.Load)
		sampler.CounterFunc("loadgen.terminal", g.terminal.Load)
		sampler.CounterFunc("loadgen.rejected429", g.rejected429.Load)
		sampler.GaugeFunc("loadgen.inflight", func() float64 { return float64(g.inflight.Load()) })
	}

	g.start = time.Now()
	results := make(chan outcome, cfg.Requests)
	go g.dispatch(ctx, sched, results)

	// The aggregator owns the latency samples and the sampler (both are
	// single-writer); workers only touch atomics and the results
	// channel.
	lats := make([]float64, 0, cfg.Requests)
	var ticker *time.Ticker
	var tickC <-chan time.Time
	if sampler != nil {
		ticker = time.NewTicker(cfg.TelemetryWindow)
		defer ticker.Stop()
		tickC = ticker.C
	}
	rep := &Report{Targets: cfg.Targets, Requests: cfg.Requests}
	var ticks int64
	for got := 0; got < cfg.Requests; {
		select {
		case out := <-results:
			got++
			switch out.state {
			case "done":
				rep.Done++
				switch {
				case out.cacheHit:
					rep.CacheHits++
				case out.source != "" && out.source != "computed":
					rep.PeerHits++
				default:
					rep.Computed++
				}
				if out.mismatch {
					rep.Mismatched++
				}
			case "failed":
				rep.Failed++
			case "cancelled":
				rep.Cancelled++
			case "timeout":
				rep.TimedOut++
			default:
				rep.Lost++
			}
			lats = append(lats, out.latency.Seconds())
		case <-tickC:
			ticks++
			sampler.Tick(ticks)
		}
	}
	if sampler != nil {
		ticks++
		sampler.Tick(ticks)
	}

	rep.Rejected429 = int(g.rejected429.Load())
	rep.Resubmits = int(g.resubmits.Load())
	rep.RetryAfterWaitSeconds = float64(g.honoredMS.Load()) / 1000
	rep.Latency = latencyQuantiles(lats)
	rep.ElapsedSeconds = time.Since(g.start).Seconds()
	rep.OfferedRate = cfg.Rate
	if rep.ElapsedSeconds > 0 {
		rep.AchievedRate = float64(cfg.Requests) / rep.ElapsedSeconds
	}
	if sampler != nil {
		t := &Telemetry{
			WindowMS:    cfg.TelemetryWindow.Milliseconds(),
			WindowTicks: sampler.Window(),
			Series:      map[string][]float64{},
		}
		for _, s := range sampler.Series() {
			t.Series[s.Name] = s.Values
		}
		rep.Telemetry = t
	}
	return rep, nil
}

// dispatch fires workers at their scheduled arrival times. It never
// waits for a slow cluster — that is the open loop.
func (g *gen) dispatch(ctx context.Context, sched []arrival, results chan<- outcome) {
	for _, a := range sched {
		if !sleepUntil(ctx, g.start.Add(a.at)) {
			// Cancelled before this arrival: it (and all later ones)
			// still must be accounted for.
			results <- outcome{state: "lost"}
			continue
		}
		go func(a arrival) {
			g.inflight.Add(1)
			defer g.inflight.Add(-1)
			results <- g.drive(ctx, a)
		}(a)
	}
}

// drive rides one request to a terminal state: submit (honoring 429
// backpressure), poll, and on transport failure resubmit to the next
// target. The same spec lands on the same store key everywhere, so a
// resubmission can never cause divergent results — only, at worst, a
// duplicate computation that the cluster's peer fetch and per-key
// singleflight are there to absorb.
func (g *gen) drive(ctx context.Context, a arrival) outcome {
	scheduled := g.start.Add(a.at)
	rctx, cancel := context.WithDeadline(ctx, scheduled.Add(g.cfg.RequestTimeout))
	defer cancel()
	lost := func() outcome {
		return outcome{state: "lost", latency: time.Since(scheduled)}
	}
	target, resubmits := a.target, 0
	for {
		st, code, hdr, err := g.submit(rctx, target, a.spec)
		switch {
		case err == nil && code == http.StatusAccepted:
			g.submitted.Add(1)
			if out, ok := g.await(rctx, target, st.ID, a, scheduled); ok {
				return out
			}
			// The node stopped answering mid-flight; fail over.
		case err == nil && code == http.StatusTooManyRequests:
			g.rejected429.Add(1)
			wait := retryAfter(hdr)
			g.honoredMS.Add(wait.Milliseconds())
			if !sleepFor(rctx, wait) {
				return lost()
			}
			// Honored the hint; try the same node again without
			// spending resubmission budget.
			continue
		case err == nil && code >= 400 && code < 500:
			// The daemon rejected the spec itself: no other node will
			// accept it either.
			return outcome{state: "failed", latency: time.Since(scheduled)}
		}
		resubmits++
		g.resubmits.Add(1)
		if resubmits > g.cfg.MaxResubmits || rctx.Err() != nil {
			return lost()
		}
		target++
		if !sleepFor(rctx, g.cfg.PollInterval) {
			return lost()
		}
	}
}

// await polls one submitted job until it is terminal. ok=false means
// the target stopped answering and the caller should fail over.
func (g *gen) await(ctx context.Context, target int, id string, a arrival, scheduled time.Time) (outcome, bool) {
	fails := 0
	for {
		st, err := g.status(ctx, target, id)
		switch {
		case err != nil && ctx.Err() != nil:
			return outcome{state: "lost", latency: time.Since(scheduled)}, true
		case err != nil:
			if fails++; fails >= 3 {
				return outcome{}, false
			}
		case st.State.Terminal():
			out := outcome{
				state:    string(st.State),
				cacheHit: st.CacheHit,
				source:   st.Source,
				latency:  time.Since(scheduled),
			}
			if st.State == serve.Done && !g.cfg.SkipVerify {
				out.mismatch = !g.verify(ctx, target, id, a.spec)
			}
			return out, true
		default:
			fails = 0
		}
		if !sleepFor(ctx, g.cfg.PollInterval) {
			return outcome{state: "lost", latency: time.Since(scheduled)}, true
		}
	}
}

func (g *gen) url(target int, path string) string {
	return g.cfg.Targets[target%len(g.cfg.Targets)] + path
}

func (g *gen) submit(ctx context.Context, target, spec int) (serve.Status, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.url(target, "/jobs"), bytes.NewReader(g.bodies[spec]))
	if err != nil {
		return serve.Status{}, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return serve.Status{}, 0, nil, err
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return serve.Status{}, 0, nil, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, resp.Header, nil
}

func (g *gen) status(ctx context.Context, target int, id string) (serve.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url(target, "/jobs/"+id), nil)
	if err != nil {
		return serve.Status{}, err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return serve.Status{}, fmt.Errorf("loadgen: status %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// verify fetches the finished job's artifact and checks it against the
// first result recorded for the same spec. Returns true when the bytes
// agree (or this is the first sighting); a fetch failure is not a
// mismatch — byte divergence is the only thing this check condemns.
func (g *gen) verify(ctx context.Context, target int, id string, spec int) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		g.url(target, "/jobs/"+id+"/result"), nil)
	if err != nil {
		return true
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return true
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return true
	}
	sum := fmt.Sprintf("%x", h.Sum(nil))
	prev, loaded := g.hashes.LoadOrStore(spec, sum)
	return !loaded || prev.(string) == sum
}

// retryAfter parses a 429's Retry-After header (delta-seconds form),
// defaulting to 1s when absent or unparseable.
func retryAfter(hdr http.Header) time.Duration {
	if s := hdr.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// sleepFor blocks for d or until ctx is done; false on cancellation.
func sleepFor(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sleepUntil blocks until the wall-clock instant at (already-past
// instants return immediately) or ctx is done.
func sleepUntil(ctx context.Context, at time.Time) bool {
	return sleepFor(ctx, time.Until(at))
}
