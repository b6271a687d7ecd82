package serve

import (
	"net/http"
	"sync"
	"time"

	"github.com/reprolab/hirise/internal/tele"
)

// jobTelemetry samples a running job's progress into a tele.Sampler at
// a fixed wall-clock cadence. Simulator samplers are single-writer per
// run; here the writer is the job's ticker goroutine while HTTP
// handlers read concurrently, so every access goes through mu. Each
// ticker fire closes one window (window length 1 tick), and the
// sampler's decimation bounds memory for arbitrarily long jobs.
type jobTelemetry struct {
	interval time.Duration

	mu    sync.Mutex
	samp  *tele.Sampler
	ticks int64
}

// newJobTelemetry builds the sampler for one job with its two standard
// tracks: the per-window task-completion delta (counter) and the
// cumulative progress snapshot (gauge).
func newJobTelemetry(j *job, interval time.Duration) *jobTelemetry {
	s := tele.NewSampler(1, tele.DefaultMaxWindows)
	s.CounterFunc("serve.job.tasks.completed", func() int64 { return j.progress.Load() })
	s.GaugeFunc("serve.job.progress", func() float64 { return float64(j.progress.Load()) })
	return &jobTelemetry{interval: interval, samp: s}
}

// tick closes one sampling window.
func (t *jobTelemetry) tick() {
	t.mu.Lock()
	t.ticks++
	t.samp.Tick(t.ticks)
	t.mu.Unlock()
}

// latest returns the closed-window count and the most recent window's
// value per series; (0, nil) before the first window closes. Nil-safe,
// like the sampler it wraps.
func (t *jobTelemetry) latest() (int, map[string]float64) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.samp.Windows()
	if n == 0 {
		return 0, nil
	}
	m := make(map[string]float64)
	for _, s := range t.samp.Series() {
		if len(s.Values) > 0 {
			m[s.Name] = s.Values[len(s.Values)-1]
		}
	}
	return n, m
}

// TelemetrySnapshot is the JSON shape of GET /jobs/{id}/telemetry.
type TelemetrySnapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// IntervalMS is the sampling cadence in milliseconds.
	IntervalMS int64 `json:"interval_ms"`
	// WindowTicks is the number of ticks each value covers; it starts
	// at 1 and doubles every decimation.
	WindowTicks int64 `json:"window_ticks"`
	// Windows is the number of closed windows currently stored.
	Windows int `json:"windows"`
	// Decimations counts how many times the series were halved to stay
	// within the memory bound.
	Decimations int `json:"decimations"`
	// Series maps each track name to its windowed values, oldest first.
	Series map[string][]float64 `json:"series"`
}

// snapshot copies the sampler state into the wire shape.
func (t *jobTelemetry) snapshot(id string, state State) TelemetrySnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TelemetrySnapshot{
		ID:          id,
		State:       state,
		IntervalMS:  t.interval.Milliseconds(),
		WindowTicks: t.samp.Window(),
		Windows:     t.samp.Windows(),
		Decimations: t.samp.Decimations(),
		Series:      map[string][]float64{},
	}
	for _, s := range t.samp.Series() {
		snap.Series[s.Name] = append([]float64(nil), s.Values...)
	}
	return snap
}

// startTelemetry attaches a sampler to the job and starts its ticker
// goroutine. The returned stop function halts the ticker and waits for
// the goroutine to exit (so Drain + leakcheck see it gone); the sampler
// itself stays readable after stop for post-mortem queries.
func (s *Server) startTelemetry(j *job) (stop func()) {
	if s.cfg.TelemetryWindow < 0 {
		return func() {}
	}
	jt := newJobTelemetry(j, s.cfg.TelemetryWindow)
	j.mu.Lock()
	j.tele = jt
	j.mu.Unlock()
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(jt.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				jt.tick()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// handleTelemetry serves GET /jobs/{id}/telemetry: the job's live (or
// final) progress time series. 409 until the job has started, since
// telemetry only exists for jobs that ran.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	jt, state := j.tele, j.state
	j.mu.Unlock()
	if jt == nil {
		writeError(w, http.StatusConflict,
			"job %s has no telemetry: job is %s or telemetry is disabled", j.id, state)
		return
	}
	writeJSON(w, http.StatusOK, jt.snapshot(j.id, state))
}
