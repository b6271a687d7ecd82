// Package obs is the switch-internals observability layer: a typed
// metrics registry, flit/packet lifecycle tracing (JSONL and Chrome
// trace-event JSON viewable in Perfetto), a CLRG fairness audit, and
// host-side profiling helpers for the CLIs.
//
// The package has two contracts. First, near-zero cost when disabled:
// every sink is a concrete pointer whose methods are no-ops on a nil
// receiver, so an instrumented hot loop pays a nil check and performs no
// allocations when observability is off (enforced by the
// allocation-regression tests in internal/core). Second, determinism:
// all recorded state is keyed by simulated cycle and owned by a single
// simulation goroutine; multi-run sinks are merged strictly in sweep
// index order, so emitted traces and reports are byte-identical at any
// internal/pool worker count. Observability output never goes to
// stdout — the CLIs write it to side files or stderr, keeping their
// stdout byte-identical to an uninstrumented run.
//
// Histogram is also the one latency histogram of the cycle loops: every
// reported P50/P99 is the midpoint of the 4-cycle bin that holds the
// ⌊q·(n−1)⌋-th order statistic, and every mean latency is sum/count over
// integer cycles, so exact. Each simulated event is counted once, in a
// Counter; internal/tele's sampler reads that counter
// (Observer.TrackedCounter) rather than keeping a second count.
package obs

import "github.com/reprolab/hirise/internal/tele"

// Observer bundles the optional observability sinks threaded through
// the simulators. A nil *Observer — and a nil field inside a non-nil
// one — is fully functional: every accessor and every sink method
// nil-checks, so callers instrument unconditionally.
type Observer struct {
	// Metrics receives typed counters, gauges, and histograms.
	Metrics *Registry
	// Trace receives flit/packet lifecycle events.
	Trace *Recorder
	// Fairness receives per-(input, class) grant/denial observations
	// from the arbitration layer.
	Fairness *FairnessAudit
	// Tele receives windowed time-series samples (counter-delta and
	// gauge tracks) from the simulation loop.
	Tele *tele.Sampler
}

// Rec returns the trace recorder, or nil.
func (o *Observer) Rec() *Recorder {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Sampler returns the telemetry sampler, or nil.
func (o *Observer) Sampler() *tele.Sampler {
	if o == nil {
		return nil
	}
	return o.Tele
}

// Audit returns the fairness audit, or nil.
func (o *Observer) Audit() *FairnessAudit {
	if o == nil {
		return nil
	}
	return o.Fairness
}

// Counter returns the named counter from the metrics registry, or a
// no-op nil counter when the observer or its registry is absent.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// TrackedCounter returns the one counter that counts the named event,
// and registers it with the sampler s as a counter track of the same
// name. The counter is the metrics registry's when there is one, so a
// single increment feeds both the metrics dump and the track. With a
// sampler but no registry (ConvergeStop's private sampler, or an
// observer with only Tele set) it is a private counter; with neither
// it is nil, the no-op counter.
func (o *Observer) TrackedCounter(s *tele.Sampler, name string) *Counter {
	c := o.Counter(name)
	if s == nil {
		return c
	}
	if c == nil {
		c = &Counter{}
	}
	s.CounterFunc(name, c.Value)
	return c
}

// Gauge returns the named gauge, or a no-op nil gauge.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, or a no-op nil histogram.
func (o *Observer) Histogram(name string, binWidth float64, bins int) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, binWidth, bins)
}
