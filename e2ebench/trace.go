package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps a traced run's spans and counter snapshots in memory and
// writes them out once, at the end, as Chrome trace-event JSON (open it
// in Perfetto or chrome://tracing). Every method is a no-op on a nil
// tracer, which is what untraced runs pass around.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one Chrome trace event: a complete span ("X") or a
// counter sample ("C"). Timestamps are microseconds from the tracer's
// start.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// span records [start, end) under name. tid groups spans into one row:
// the spans of one request share its index, and its stage spans name
// the request span that caused them in args["parent"].
func (t *tracer) span(cat, name string, tid int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	ev := traceEvent{Name: name, Cat: cat, Ph: "X", Ts: t.us(start), Dur: float64(end.Sub(start)) / float64(time.Microsecond), Pid: 1, Tid: tid, Args: args}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// counters records a snapshot of named counter values at one instant.
func (t *tracer) counters(name string, at time.Time, vals map[string]float64) {
	if t == nil {
		return
	}
	args := make(map[string]any, len(vals))
	for k, v := range vals {
		args[k] = v
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{Name: name, Cat: "counters", Ph: "C", Ts: t.us(at), Pid: 1, Args: args})
	t.mu.Unlock()
}

// write stores the spans as <base>.trace.json and, when profile is
// non-empty, the CPU profile as <base>.cpu.pb.gz (readable with
// `go tool pprof`).
func (t *tracer) write(base string, profile []byte) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{t.events}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace encode: %w", err)
	}
	if err := os.WriteFile(base+".trace.json", raw, 0o644); err != nil {
		return err
	}
	if len(profile) > 0 {
		return os.WriteFile(base+".cpu.pb.gz", profile, 0o644)
	}
	return nil
}
