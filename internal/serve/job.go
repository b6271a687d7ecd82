package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/hirise/internal/store"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Cancelled /
// Timeout. A queued job that is cancelled skips Running entirely; Timeout
// is reached only from Running, when the job outlives Config.JobTimeout.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
	Timeout   State = "timeout"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled || s == Timeout
}

// Event is one entry of a job's NDJSON progress stream.
type Event struct {
	// Seq orders events within one job, starting at 0.
	Seq int `json:"seq"`
	// Event names the transition or observation: "queued", "started",
	// "progress", "done", "failed", "cancelled", "timeout".
	Event string `json:"event"`
	// Time is the wall-clock timestamp (RFC3339, UTC).
	Time string `json:"time"`
	// Completed and Total report sweep progress on "progress" events
	// (Total is 0 when the experiment's task count is not known up
	// front).
	Completed int64 `json:"completed,omitempty"`
	Total     int   `json:"total,omitempty"`
	// CacheHit is set on "done": true when the result was served from
	// the store without re-simulation.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error carries the failure message on "failed".
	Error string `json:"error,omitempty"`
	// Windows and Telemetry surface the job's live time-series sampler
	// on "progress" events: the closed-window count and the most recent
	// window's value per series. Absent until the first window closes
	// or when telemetry is disabled.
	Windows   int                `json:"windows,omitempty"`
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// job is one submitted computation.
type job struct {
	id  string
	seq int // submission order; id is its printed form
	req Request
	key store.Key

	// ctx is cancelled by DELETE /jobs/{id} or server drain-timeout;
	// the simulation layers poll it between cycles.
	ctx    context.Context
	cancel context.CancelFunc

	// progress counts completed simulation tasks (atomic; written from
	// pool worker goroutines via Opts.Progress).
	progress atomic.Int64
	total    int // known task count (sweep point count), 0 if unknown

	mu       sync.Mutex
	state    State
	events   []Event
	changed  chan struct{} // closed and replaced on every update
	result   []byte
	cacheHit bool
	// source records where a cluster-enabled node got the result:
	// "peer:<id>" or "computed". Empty when clustering is off (keeping
	// single-daemon Status JSON unchanged) and on cache hits.
	source string
	err    error
	// tele is the job's live progress sampler, attached when the job
	// starts running (nil while queued or when telemetry is disabled).
	tele *jobTelemetry

	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(seq int, req Request, key store.Key, parent context.Context) *job {
	ctx, cancel := context.WithCancel(parent)
	j := &job{
		id:      fmt.Sprintf("j%06d", seq),
		seq:     seq,
		req:     req,
		key:     key,
		ctx:     ctx,
		cancel:  cancel,
		state:   Queued,
		changed: make(chan struct{}),
		created: time.Now(),
	}
	j.appendEventLocked(Event{Event: "queued"})
	return j
}

// appendEventLocked stamps and appends an event and wakes streamers.
// Callers must hold j.mu — except the newJob constructor, which owns the
// job exclusively.
func (j *job) appendEventLocked(e Event) {
	e.Seq = len(j.events)
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	j.events = append(j.events, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// transition moves the job to a new state with its lifecycle event.
// Transitions out of a terminal state are ignored (e.g. a worker
// finishing a job that was already marked cancelled).
func (j *job) transition(state State, e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.transitionLocked(state, e)
}

func (j *job) transitionLocked(state State, e Event) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	switch state {
	case Running:
		j.started = time.Now()
	case Done, Failed, Cancelled, Timeout:
		j.finished = time.Now()
	}
	j.appendEventLocked(e)
}

// finish records a terminal result and reports whether this call
// settled the job: false when it was already terminal (a worker
// reaching a job that a DELETE settled while it was queued), so each
// job is counted and joins the server's finished list once. cancelled wins over timedOut: a
// client DELETE that races the deadline reports what the client asked
// for. Settling releases the job's context, which would otherwise stay
// registered with the server's base context for the life of the
// process.
func (j *job) finish(result []byte, cacheHit bool, err error, cancelled, timedOut bool) bool {
	var state State
	var e Event
	switch {
	case cancelled:
		state, e = Cancelled, Event{Event: "cancelled"}
	case timedOut:
		state, e = Timeout, Event{Event: "timeout", Error: err.Error()}
	case err != nil:
		state, e = Failed, Event{Event: "failed", Error: err.Error()}
	default:
		state, e = Done, Event{Event: "done", CacheHit: cacheHit}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.result, j.cacheHit, j.err = result, cacheHit, err
	j.transitionLocked(state, e)
	j.cancel()
	return true
}

// setSource records the result's provenance; called from inside the
// store's compute closure, before finish.
func (j *job) setSource(src string) {
	j.mu.Lock()
	j.source = src
	j.mu.Unlock()
}

// telemetry returns the job's sampler, nil until the job starts (or
// forever, when telemetry is disabled).
func (j *job) telemetry() *jobTelemetry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tele
}

// snapshot returns the state, the events at or after fromSeq, and the
// change channel to wait on for more.
func (j *job) snapshot(fromSeq int) (State, []Event, chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []Event
	if fromSeq < len(j.events) {
		tail = append(tail, j.events[fromSeq:]...)
	}
	return j.state, tail, j.changed
}

// Status is the JSON shape of GET /jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Experiment echoes the experiment ID for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Key is the content address of the job's result in the store.
	Key string `json:"key"`
	// CacheHit reports whether a finished job was served from the
	// store without re-simulation.
	CacheHit bool `json:"cache_hit"`
	// Source reports, on cluster-enabled nodes, where a computed (i.e.
	// non-cache-hit) result came from: "peer:<id>" or "computed".
	// Absent on single-daemon deployments and on cache hits.
	Source string `json:"source,omitempty"`
	// Progress counts completed simulation tasks; Total is 0 when the
	// task count is not known up front.
	Progress int64  `json:"progress"`
	Total    int    `json:"total,omitempty"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		Kind:       j.req.Kind,
		State:      j.state,
		Experiment: j.req.Experiment,
		Key:        j.key.String(),
		CacheHit:   j.cacheHit,
		Source:     j.source,
		Progress:   j.progress.Load(),
		Total:      j.total,
		Created:    j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}
