// Package serve is the experiment job service: a long-running HTTP API
// over the deterministic simulation engine, backed by the
// content-addressed result store. It turns the repository's CLIs'
// one-shot runs into shared, cacheable, cancellable jobs:
//
//	POST   /jobs              submit an experiment or load sweep (429 under backpressure)
//	GET    /jobs              list retained jobs in submission order
//	GET    /jobs/{id}         job status (state, cache_hit, progress, result key)
//	GET    /jobs/{id}/result  the result body once done
//	GET    /jobs/{id}/events  NDJSON lifecycle + progress stream, live until terminal
//	GET    /jobs/{id}/telemetry  windowed progress time series of a started job
//	DELETE /jobs/{id}         cancel: pending jobs are dropped, running jobs abort
//	                          at the simulators' next cycle-level ctx check
//	GET    /healthz           liveness + queue depth
//	GET    /metrics           Prometheus text exposition of server counters
//
// Identical submissions share one computation (store singleflight) and
// later ones are served byte-identical from cache; a DELETE or a
// server-wide drain timeout cancels the job's context, which the pool /
// sim / fabric layers poll cooperatively, so cancelled work actually
// releases its workers instead of simulating into the void.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/hirise/internal/cluster"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/store"
	"github.com/reprolab/hirise/internal/tele"
)

// Config parameterizes a Server.
type Config struct {
	// Store holds results; required. A memory-only store (dir "") works
	// but loses the cache on restart.
	Store *store.Store
	// QueueDepth bounds the number of accepted-but-not-finished jobs;
	// submissions beyond it get 429 (0 selects 64; negative is an
	// error).
	QueueDepth int
	// Workers is the number of jobs executed concurrently (0 selects 1 —
	// each job already parallelizes internally via SimWorkers; negative
	// is an error).
	Workers int
	// SimWorkers bounds the per-job simulation parallelism, like the
	// CLIs' -parallel flag (0 selects all CPUs).
	SimWorkers int
	// JobTimeout bounds each job's wall-clock run time (0 = unlimited).
	// A job that outlives it is cancelled at the simulators' next
	// cycle-level check and settles in the distinct "timeout" terminal
	// state, so stuck or oversized submissions cannot pin a worker
	// forever.
	JobTimeout time.Duration
	// TelemetryWindow is the wall-clock sampling cadence for per-job
	// live telemetry (progress time series surfaced through the events
	// stream and GET /jobs/{id}/telemetry). 0 selects the 250ms
	// default; a negative value disables job telemetry entirely.
	TelemetryWindow time.Duration
	// Cluster is the optional peer layer: on a store miss the job's
	// result is fetched from the key's home node and ring siblings
	// before being computed locally. Nil keeps single-daemon behaviour
	// byte-identical — the cluster can only avoid work, never add
	// failure modes (every peer problem degrades to local compute).
	// The Server uses but does not own the Cluster; the caller closes
	// it after Drain.
	Cluster *cluster.Cluster
	// HeartbeatInterval is how often an otherwise-idle NDJSON events
	// stream emits a "heartbeat" event, keeping proxies from timing
	// the stream out and surfacing dead clients to the handler
	// (default 10s; negative disables heartbeats).
	HeartbeatInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.TelemetryWindow == 0 {
		c.TelemetryWindow = 250 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 10 * time.Second
	}
	return c
}

// maxFinishedJobs bounds how many finished jobs a Server keeps for
// GET /jobs and GET /jobs/{id}: once more have finished, the oldest
// finished ones are evicted and their ids answer 404. Queued and
// running jobs are never evicted, and an evicted job's result stays in
// the store, so resubmitting its request is a cache hit.
const maxFinishedJobs = 4096

// Server is the job service. Create with New, expose via Handler, stop
// with Drain.
type Server struct {
	cfg   Config
	store *store.Store

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job
	// finished lists the retained finished jobs' ids, oldest first: the
	// eviction order. At most maxFinished of them are kept
	// (maxFinishedJobs outside tests).
	finished    []string
	maxFinished int
	queue       chan *job
	draining    bool
	seq         int

	running atomic.Int64
	workers sync.WaitGroup

	submitted, rejected, completed, failed, cancelled, timedout atomic.Int64
	// computedLocal counts jobs whose result came from running the
	// simulator here; peerFetched the ones served by a cluster peer.
	// Their sum plus cache hits accounts for every done job, which is
	// what the chaos tests audit to prove nothing is computed twice.
	computedLocal, peerFetched atomic.Int64

	// retryJitter drives the deterministic jitter added to 429
	// Retry-After hints, so synchronized clients spread out instead of
	// retrying in lockstep. It is seeded with 1; guarded by mu (the 429
	// path already holds it).
	retryJitter *prng.Source

	// clusterTele samples the cluster's windowed fetch/breaker tracks
	// on the TelemetryWindow cadence for GET /cluster; nil when
	// clustering or telemetry is off.
	clusterTele     *jobTelemetry
	stopClusterTele func()

	// jobStats is the persistent cross-job registry (the job-duration
	// histogram). obs registries are single-writer by contract, so both
	// the per-job Observe and the per-scrape Merge hold statsMu.
	statsMu  sync.Mutex
	jobStats *obs.Registry
}

// New starts a Server's worker pool and returns it.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: queue depth %d is negative", cfg.QueueDepth)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("serve: workers %d is negative", cfg.Workers)
	}
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		store:       cfg.Store,
		baseCtx:     ctx,
		cancelBase:  cancel,
		jobs:        map[string]*job{},
		maxFinished: maxFinishedJobs,
		queue:       make(chan *job, cfg.QueueDepth),
		jobStats:    obs.NewRegistry(),
		retryJitter: prng.New(1),
	}
	if cfg.Cluster != nil && cfg.TelemetryWindow > 0 {
		s.startClusterTelemetry()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// worker executes queued jobs until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job through the store.
func (s *Server) run(j *job) {
	if j.ctx.Err() != nil {
		// Cancelled while queued; handleCancel has usually settled it.
		if s.settle(j, nil, false, j.ctx.Err(), true, false) {
			s.cancelled.Add(1)
		}
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	j.transition(Running, Event{Event: "started"})
	stopTele := s.startTelemetry(j)
	start := time.Now()

	// The wall-clock budget starts when the job starts running, not when
	// it was queued: a long queue must not eat a job's timeout.
	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	// The peer fetch lives inside the compute closure so the store's
	// singleflight covers it too: concurrent submissions of one key make
	// one cluster round-trip, not one per caller.
	var ran atomic.Bool
	data, hit, err := s.store.GetOrCompute(ctx, j.key, func(cctx context.Context) ([]byte, error) {
		ran.Store(true)
		if cl := s.cfg.Cluster; cl != nil {
			if data, from, ok := cl.Fetch(cctx, j.key); ok {
				s.peerFetched.Add(1)
				j.setSource("peer:" + from)
				return data, nil
			}
			j.setSource("computed")
		}
		s.computedLocal.Add(1)
		return s.compute(cctx, j)
	})
	stopTele()
	// A job that joined an identical job's in-flight computation was
	// served by the store without simulating for itself: a cache hit.
	hit = hit || (err == nil && !ran.Load())
	s.statsMu.Lock()
	s.jobStats.Histogram("serve.job.duration.seconds", 0.5, 40).Observe(time.Since(start).Seconds())
	s.statsMu.Unlock()
	cancelled := j.ctx.Err() != nil && errors.Is(err, context.Canceled)
	// Timeout: the per-job deadline fired and the run errored, but the
	// job itself was never cancelled by a client or a drain.
	timedOut := err != nil && ctx.Err() != nil && j.ctx.Err() == nil
	if !s.settle(j, data, hit, err, cancelled, timedOut) {
		return
	}
	switch {
	case cancelled:
		s.cancelled.Add(1)
	case timedOut:
		s.timedout.Add(1)
	case err != nil:
		s.failed.Add(1)
	default:
		s.completed.Add(1)
	}
}

// settle records j's terminal result (see job.finish) and reports
// whether this call settled it. A job that settles joins the finished
// list, and the oldest finished jobs past maxFinished leave the job
// table, all under s.mu: no client sees the new terminal state while a
// job it evicts is still listed. Only settled jobs reach the list, so
// queued and running jobs are never evicted.
func (s *Server) settle(j *job, result []byte, cacheHit bool, err error, cancelled, timedOut bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.finish(result, cacheHit, err, cancelled, timedOut) {
		return false
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.maxFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	return true
}

// Drain stops the server gracefully: new submissions are rejected
// immediately, queued and running jobs keep going, and Drain returns
// when all of them have finished. If ctx expires first, every remaining
// job is cancelled (they unwind at their next cycle-level check) and
// Drain waits for the workers to exit before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // cancels every job ctx
		<-done
	}
	s.cancelBase()
	if s.stopClusterTele != nil {
		s.stopClusterTele()
	}
	return err
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /store/{key}", s.handleStore)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := s.keyOf(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	j := newJob(s.seq, req, key, s.baseCtx)
	if req.Kind == "loadsweep" {
		j.total = len(req.Loads)
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
	default:
		s.seq-- // job was never admitted
		retryAfter := s.retryAfterLocked()
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests, "job queue full (%d)", s.cfg.QueueDepth)
		return
	}
	s.mu.Unlock()
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.status())
}

// retryAfterLocked computes the Retry-After hint for a 429 from the
// live queue depth and the observed job-duration mean. Caller holds
// s.mu (the jitter source is guarded by it).
func (s *Server) retryAfterLocked() int {
	s.statsMu.Lock()
	avg := s.jobStats.Histogram("serve.job.duration.seconds", 0.5, 40).Mean()
	s.statsMu.Unlock()
	return retryAfterSeconds(len(s.queue), s.cfg.Workers, avg, s.retryJitter)
}

// retryAfterSeconds estimates how long a rejected client should wait
// before resubmitting: the queue's expected drain time (average job
// duration × depth ÷ workers, defaulting to 1s/job before any job has
// finished), clamped to [1s, 60s], plus deterministic jitter of up to
// half the base so synchronized clients spread out instead of returning
// in lockstep. Pure given the jitter source's state, which is what the
// pinning test relies on.
func retryAfterSeconds(depth, workers int, avgSeconds float64, jitter *prng.Source) int {
	if avgSeconds <= 0 {
		avgSeconds = 1.0
	} else if avgSeconds < 0.05 {
		avgSeconds = 0.05
	}
	base := int(math.Ceil(avgSeconds * float64(depth) / float64(workers)))
	if base < 1 {
		base = 1
	}
	if base > 60 {
		base = 60
	}
	window := base/2 + 1
	if window < 2 {
		window = 2
	}
	return base + int(jitter.Uint64()%uint64(window))
}

// handleStore serves GET /store/{key}: the raw cached payload for a
// content address, 404 when this node does not hold it. This is the
// endpoint cluster peers fetch from — it never computes, so a fetch
// storm cannot amplify into a compute storm.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, ok := s.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "key %s not in store", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// ClusterStatus is the JSON shape of GET /cluster: the peer layer's
// snapshot plus, when telemetry is enabled, its windowed time series.
type ClusterStatus struct {
	cluster.Snapshot
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	if cl == nil {
		writeError(w, http.StatusNotFound, "clustering is not enabled")
		return
	}
	out := ClusterStatus{Snapshot: cl.Snapshot()}
	if s.clusterTele != nil {
		snap := s.clusterTele.snapshot(cl.Self(), "")
		out.Telemetry = &snap
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	bound := s.maxFinished
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q (finished jobs are evicted once more than %d have finished)",
			r.PathValue("id"), bound)
	}
	return j
}

// handleList serves GET /jobs: every retained job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return a.seq - b.seq })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result := j.state, j.result
	j.mu.Unlock()
	if state != Done {
		writeError(w, http.StatusConflict, "job %s is %s, result available once done", j.id, state)
		return
	}
	w.Header().Set("Content-Type", contentType(j.req))
	w.Header().Set("Content-Length", strconv.Itoa(len(result)))
	w.Write(result)
}

// handleEvents streams the job's events as NDJSON: everything recorded
// so far immediately, then live updates (including periodic progress
// snapshots while the job runs) until the job reaches a terminal state
// or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	lastEmit := time.Now()
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		lastEmit = time.Now()
		return true
	}

	next := 0
	lastProgress := int64(-1)
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		state, events, changed := j.snapshot(next)
		for _, e := range events {
			if !emit(e) {
				return
			}
			next++
		}
		if state.Terminal() {
			return
		}
		if p := j.progress.Load(); state == Running && p != lastProgress {
			lastProgress = p
			// Progress snapshots are observations, not recorded events;
			// they carry no sequence number of their own.
			e := Event{Seq: next, Event: "progress", Time: time.Now().UTC().Format(time.RFC3339Nano), Completed: p, Total: j.total}
			e.Windows, e.Telemetry = j.telemetry().latest()
			if !emit(e) {
				return
			}
		}
		// Heartbeats keep an otherwise-silent stream (a long-queued job,
		// a sweep between progress updates) alive through idle-timeout
		// proxies, and make a dead client visible to this handler as a
		// write error instead of a goroutine parked forever.
		if s.cfg.HeartbeatInterval > 0 && time.Since(lastEmit) >= s.cfg.HeartbeatInterval {
			e := Event{Seq: next, Event: "heartbeat", Time: time.Now().UTC().Format(time.RFC3339Nano)}
			if !emit(e) {
				return
			}
		}
		select {
		case <-changed:
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	queued := j.state == Queued
	j.mu.Unlock()
	if terminal {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	j.cancel()
	if queued {
		// The worker may not reach this job for a while; settle its
		// state now so clients see the cancellation immediately. run()
		// still observes the cancelled ctx and skips it.
		if s.settle(j, nil, false, context.Canceled, true, false) {
			s.cancelled.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":  state,
		"queued":  queued,
		"running": s.running.Load(),
	})
}

// handleMetrics renders the server's counters in the Prometheus text
// exposition format (version 0.0.4) through an obs metrics registry —
// the same registry machinery the simulators use, so families sort
// deterministically. The scrape registry is rebuilt per request: obs
// registries are single-writer by contract, so sharing one across
// request goroutines would race. The persistent cross-job state (the
// job-duration histogram) is merged in under statsMu.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	reg.Counter("serve.jobs.submitted").Add(s.submitted.Load())
	reg.Counter("serve.jobs.rejected").Add(s.rejected.Load())
	reg.Counter("serve.jobs.completed").Add(s.completed.Load())
	reg.Counter("serve.jobs.failed").Add(s.failed.Load())
	reg.Counter("serve.jobs.cancelled").Add(s.cancelled.Load())
	reg.Counter("serve.jobs.timeout").Add(s.timedout.Load())
	reg.Counter("serve.jobs.computed").Add(s.computedLocal.Load())
	reg.Counter("serve.jobs.peer").Add(s.peerFetched.Load())
	st := s.store.Stats()
	reg.Counter("store.hits.memory").Add(st.MemHits)
	reg.Counter("store.hits.disk").Add(st.DiskHits)
	reg.Counter("store.misses").Add(st.Misses)
	reg.Counter("store.inflight.shared").Add(st.Shared)
	reg.Counter("store.corrupt").Add(st.Corrupt)
	reg.Counter("store.write.errors").Add(st.WriteErrors)
	s.mu.Lock()
	reg.Gauge("serve.queue.depth").Set(float64(len(s.queue)))
	s.mu.Unlock()
	reg.Gauge("serve.jobs.running").Set(float64(s.running.Load()))
	s.statsMu.Lock()
	reg.Merge(s.jobStats)
	s.statsMu.Unlock()
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Describe(reg)
	}

	w.Header().Set("Content-Type", obs.PrometheusContentType)
	reg.WritePrometheus(w)
}

// startClusterTelemetry attaches a windowed sampler to the cluster's
// counters and starts its window timer on the TelemetryWindow cadence.
// Stopped by Drain.
func (s *Server) startClusterTelemetry() {
	jt := &jobTelemetry{interval: s.cfg.TelemetryWindow, samp: tele.NewSampler(1, tele.DefaultMaxWindows)}
	s.cfg.Cluster.Sample(jt.samp)
	s.clusterTele = jt
	s.stopClusterTele = jt.start()
}
