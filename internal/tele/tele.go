// Package tele is the time-series telemetry plane: a fixed-cadence
// windowed sampler that turns the simulators' per-cycle activity into
// bounded-memory counter and gauge tracks.
//
// Where internal/obs collapses a run into aggregates (total delivered,
// latency histogram), tele keeps the time axis: every WindowCycles
// cycles the sampler closes a window and records, per registered
// series, either the counter delta over the window or a gauge snapshot
// at its close. The resulting tracks expose ramps, VOQ fill, fault
// transients, and convergence — dynamics the aggregates hide.
//
// Memory is bounded at any run length by power-of-two decimation: when
// the number of stored windows reaches MaxWindows, adjacent window
// pairs are merged in place (counter deltas sum; gauges keep the later
// snapshot) and the window length doubles. A sampler therefore holds
// at most MaxWindows samples per series forever, and every stored
// window always covers WindowCycles << k cycles for a single k shared
// by all series.
//
// The sampler owns no event counters: a counter series reads, through
// CounterFunc, a counter that its owner increments (the simulators'
// obs.Counter handles, via obs.Observer.TrackedCounter; atomics in the
// serving layers), so each event is counted once.
//
// Like obs, everything is nil-safe: every method on a nil *Sampler is
// a no-op, so instrumented hot loops pay one nil check and zero
// allocations when telemetry is disabled.
//
// The package is deliberately single-writer: the simulation loop owns
// the sampler. Concurrent readers (e.g. a serving layer snapshotting
// live job telemetry) must synchronize externally.
package tele

import "math"

// Default sampling parameters, used when NewSampler is given zero
// values.
const (
	// DefaultWindowCycles is the initial window length.
	DefaultWindowCycles = 256
	// DefaultMaxWindows is the per-series sample bound; reaching it
	// triggers decimation. Must be even so pairwise merging is exact.
	DefaultMaxWindows = 512
)

// mserMinWindows is the shortest series MSER will judge. Below this
// the variance estimates are too noisy to call anything converged.
const mserMinWindows = 8

// Kind distinguishes how a series turns raw values into samples.
type Kind uint8

const (
	// KindCounter records the increase of a monotonic counter over
	// each window (a rate track).
	KindCounter Kind = iota
	// KindGauge records an instantaneous snapshot at each window
	// close (a level track).
	KindGauge
)

// String returns the NDJSON wire name of the kind.
func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// track is one registered series and its sample storage.
type track struct {
	name string
	kind Kind
	cfn  func() int64   // KindCounter source
	gfn  func() float64 // KindGauge source
	last int64          // counter value at the previous window close
	vals []float64      // one sample per stored window, capacity maxW
}

// Series is an exported snapshot of one track, as produced by
// Sampler.Series and consumed by the NDJSON/Chrome writers.
type Series struct {
	Name   string
	Kind   Kind
	Window int64 // cycles covered by each value after decimation
	Values []float64
}

// Sampler collects windowed samples from registered series. Create
// with NewSampler, register series before the first Tick, then call
// Tick once per simulated cycle (or logical tick) with the count of
// completed cycles.
type Sampler struct {
	window int64 // current window length in cycles (doubles on decimation)
	maxW   int   // sample bound per series, even
	next   int64 // cycle count at which the open window closes
	n      int   // stored windows per series
	decims int   // decimation generations so far
	tracks []*track
	byName map[string]*track
}

// NewSampler returns a sampler with the given initial window length in
// cycles and per-series sample bound. Zero or negative arguments pick
// DefaultWindowCycles / DefaultMaxWindows; maxWindows is rounded up to
// an even number of at least 4 so pairwise decimation stays exact.
func NewSampler(windowCycles int64, maxWindows int) *Sampler {
	if windowCycles <= 0 {
		windowCycles = DefaultWindowCycles
	}
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	if maxWindows < 4 {
		maxWindows = 4
	}
	if maxWindows%2 != 0 {
		maxWindows++
	}
	return &Sampler{
		window: windowCycles,
		maxW:   maxWindows,
		next:   windowCycles,
		byName: make(map[string]*track),
	}
}

func (s *Sampler) register(t *track) *track {
	t.vals = make([]float64, 0, s.maxW)
	s.tracks = append(s.tracks, t)
	s.byName[t.name] = t
	return t
}

// CounterFunc registers a counter series sampled by calling fn at each
// window close; fn must be monotonic non-decreasing (e.g. an
// atomically incremented total). The value fn returns at registration
// is the base of the first window, so each window records only the
// events counted after registration. Registering after windows have
// closed would misalign the series, so register before the first Tick.
// No-op on a nil sampler.
func (s *Sampler) CounterFunc(name string, fn func() int64) {
	if s == nil || fn == nil {
		return
	}
	if _, ok := s.byName[name]; ok {
		panic("tele: series " + name + " registered twice")
	}
	s.register(&track{name: name, kind: KindCounter, cfn: fn, last: fn()})
}

// GaugeFunc registers a gauge series snapshotted by calling fn at each
// window close. No-op on a nil sampler.
func (s *Sampler) GaugeFunc(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	if _, ok := s.byName[name]; ok {
		panic("tele: series " + name + " registered twice")
	}
	s.register(&track{name: name, kind: KindGauge, gfn: fn})
}

// Tick advances the sampler to the given completed-cycle count and
// reports whether a window closed. Call once per cycle with cycle+1;
// on the nil sampler and on mid-window cycles it is a single compare.
// Partial trailing windows are never recorded: only spans of exactly
// Window() cycles produce samples, so rates stay exact.
func (s *Sampler) Tick(cycle int64) bool {
	if s == nil || cycle < s.next {
		return false
	}
	s.closeWindow()
	return true
}

// closeWindow records one sample per series, then decimates if the
// bound is hit. The next-close cursor advances by the post-decimation
// window length, keeping closes aligned to window boundaries.
func (s *Sampler) closeWindow() {
	for _, t := range s.tracks {
		var v float64
		switch t.kind {
		case KindCounter:
			cur := t.cfn()
			v = float64(cur - t.last)
			t.last = cur
		case KindGauge:
			v = t.gfn()
		}
		t.vals = append(t.vals, v)
	}
	s.n++
	if s.n == s.maxW {
		s.decimate()
	}
	s.next += s.window
}

// decimate merges adjacent window pairs in place: counter deltas sum
// (the merged window saw both halves' events), gauges keep the later
// snapshot (the level at the merged window's close). The window length
// doubles, so all stored samples keep a uniform cadence.
func (s *Sampler) decimate() {
	half := s.n / 2
	for _, t := range s.tracks {
		for i := 0; i < half; i++ {
			if t.kind == KindCounter {
				t.vals[i] = t.vals[2*i] + t.vals[2*i+1]
			} else {
				t.vals[i] = t.vals[2*i+1]
			}
		}
		t.vals = t.vals[:half]
	}
	s.n = half
	s.window *= 2
	s.decims++
}

// Window returns the current per-sample window length in cycles
// (initial length × 2^decimations). Zero on a nil sampler.
func (s *Sampler) Window() int64 {
	if s == nil {
		return 0
	}
	return s.window
}

// Windows returns the number of closed windows currently stored.
func (s *Sampler) Windows() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Decimations returns how many times the sampler has halved its
// resolution.
func (s *Sampler) Decimations() int {
	if s == nil {
		return 0
	}
	return s.decims
}

// Values returns the stored samples of the named series, or nil if the
// series (or the sampler) doesn't exist. The slice aliases internal
// storage and is invalidated by the next Tick that closes a window.
func (s *Sampler) Values(name string) []float64 {
	if s == nil {
		return nil
	}
	t, ok := s.byName[name]
	if !ok {
		return nil
	}
	return t.vals
}

// Series returns snapshots of every registered series in registration
// order (the Values slices alias internal storage). Nil on a nil
// sampler.
func (s *Sampler) Series() []Series {
	if s == nil {
		return nil
	}
	out := make([]Series, len(s.tracks))
	for i, t := range s.tracks {
		out[i] = Series{Name: t.name, Kind: t.kind, Window: s.window, Values: t.vals}
	}
	return out
}

// MSER computes the Marginal Standard Error Rule truncation point of
// the series x: the prefix length d* minimizing
//
//	z(d) = Σ_{i=d}^{n-1} (x_i − mean_{d..n-1})² / (n−d)²
//
// over d ∈ [0, n/2]. It returns d* and whether the minimum is interior
// (d* < n/2), the usual MSER acceptance rule: an interior minimum
// means the tail after d* behaves like a stationary sample, so the
// series has reached steady state and the first d* windows are
// initialization bias. Series shorter than 8 samples return (0,
// false). The scan is O(n) via suffix sums and allocation-free, so
// it can run at every window close for early-exit checks.
func MSER(x []float64) (cut int, converged bool) {
	n := len(x)
	if n < mserMinWindows {
		return 0, false
	}
	half := n / 2
	best, bestZ := half, math.Inf(1)
	var s1, s2 float64
	for i := n - 1; i >= 0; i-- {
		s1 += x[i]
		s2 += x[i] * x[i]
		if i <= half {
			cnt := float64(n - i)
			m := s1 / cnt
			z := (s2 - cnt*m*m) / (cnt * cnt)
			// <= prefers the smaller d on ties (longer steady
			// sample), e.g. a constant series truncates at 0.
			if z <= bestZ {
				bestZ, best = z, i
			}
		}
	}
	return best, best < half
}
