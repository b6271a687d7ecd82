package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Counter is a monotonically increasing int64 metric. All methods are
// no-ops on a nil receiver, which is the disabled path.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value float64 metric, nil-safe like Counter.
type Gauge struct{ v float64 }

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last recorded value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bin-width histogram over [0, binWidth*len(bins))
// with an overflow bucket. It is both a registry metric and the latency
// histogram every cycle loop reports its P50/P99 and mean from.
// Negative observations (including -Inf) clamp to bin 0; observations
// at or above the upper bound (including +Inf) land in the overflow
// bucket; NaN observations are counted apart and excluded from the
// distribution. Nil-safe like Counter.
type Histogram struct {
	binWidth float64
	bins     []int64
	overflow int64
	nan      int64
	count    int64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram of bins bins of width
// binWidth. It panics on a non-positive shape.
func NewHistogram(binWidth float64, bins int) *Histogram {
	if !(binWidth > 0) || bins <= 0 {
		badShape(binWidth, bins)
	}
	return &Histogram{binWidth: binWidth, bins: make([]int64, bins)}
}

// badShape is kept out of line so that NewHistogram inlines: a cycle
// loop's result histogram then does not escape, and its header stays on
// the run's stack instead of costing an allocation per run.
//
//go:noinline
func badShape(binWidth float64, bins int) {
	panic(fmt.Sprintf("obs: invalid histogram shape %v x %d", binWidth, bins))
}

// Observe records one observation. (Converting NaN or ±Inf to int is
// platform-defined in Go, so the guards before the conversion are what
// keep Observe panic-free.)
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	if math.IsNaN(x) {
		h.nan++
		return
	}
	if h.count == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.count++
	h.sum += x
	switch {
	case x < 0:
		h.bins[0]++
	case x >= h.binWidth*float64(len(h.bins)): // also catches +Inf
		h.overflow++
	default:
		i := int(x / h.binWidth)
		if i >= len(h.bins) { // float rounding just below the upper edge
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns the number of non-NaN observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns sum/count over the non-NaN observations, or 0 when
// empty. It is not binned; over integer observations such as cycle
// latencies the sum is exact, so the mean is the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the midpoint of the bin that holds the
// ⌊q·(count−1)⌋-th order statistic (counting from 0). An order
// statistic in the overflow bucket reports the upper bound
// binWidth*len(bins). q is clamped to [0, 1], and a NaN q counts as 0.
// Empty (or nil) histograms return 0. Every P50/P99 the simulators
// report comes from this rule over 4-cycle bins.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if !(q > 0) { // negative or NaN
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.count-1))
	var cum int64
	for i, c := range h.bins {
		cum += c
		if cum > target {
			return (float64(i) + 0.5) * h.binWidth
		}
	}
	return h.binWidth * float64(len(h.bins))
}

// histJSON is the stable serialized shape of a Histogram.
type histJSON struct {
	BinWidth float64 `json:"bin_width"`
	Count    int64   `json:"count"`
	Sum      float64 `json:"sum"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Overflow int64   `json:"overflow"`
	NaN      int64   `json:"nan"`
	// Bins lists only occupied bins as [index, count] pairs to keep
	// dumps of sparse latency histograms small.
	Bins [][2]int64 `json:"bins"`
}

func (h *Histogram) marshal() histJSON {
	j := histJSON{
		BinWidth: h.binWidth, Count: h.count, Sum: h.sum,
		Min: h.min, Max: h.max, Overflow: h.overflow, NaN: h.nan,
		Bins: [][2]int64{},
	}
	for i, c := range h.bins {
		if c != 0 {
			j.Bins = append(j.Bins, [2]int64{int64(i), c})
		}
	}
	return j
}

// Registry is a typed metrics registry. Metric handles are interned by
// name: asking twice for the same name returns the same handle, so
// instrumentation sites can fetch handles up front and increment
// allocation-free afterwards. A nil *Registry hands out nil handles,
// which are valid no-op sinks. A Registry is confined to one simulation
// goroutine; concurrent sweeps use one Registry per point, merged in
// index order by the caller.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// shape on first use (the shape of an existing handle is not changed).
func (r *Registry) Histogram(name string, binWidth float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(binWidth, bins)
		r.hists[name] = h
	}
	return h
}

// registryJSON is the stable serialized shape of a Registry. Map keys
// serialize in sorted order (encoding/json), so dumps are deterministic
// regardless of registration order.
type registryJSON struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
}

func (r *Registry) marshal() registryJSON {
	j := registryJSON{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histJSON{},
	}
	for name, c := range r.counters {
		j.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		j.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		j.Histograms[name] = h.marshal()
	}
	return j
}

// WriteJSON dumps the registry as one indented JSON document with
// sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.marshal())
}

// WriteText dumps the registry as aligned "name value" lines in sorted
// name order.
func (r *Registry) WriteText(w io.Writer) error {
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter   %-32s %d", name, c.v))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge     %-32s %g", name, g.v))
	}
	for name, h := range r.hists {
		lines = append(lines, fmt.Sprintf("histogram %-32s count=%d mean=%.3f min=%.3f max=%.3f overflow=%d nan=%d",
			name, h.count, h.Mean(), h.min, h.max, h.overflow, h.nan))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteRegistriesJSON dumps a sweep's per-point registries as one JSON
// array in point order, the multi-run counterpart of WriteJSON. Nil
// registries (points that were not observed) serialize as null.
func WriteRegistriesJSON(w io.Writer, regs []*Registry) error {
	docs := make([]*registryJSON, len(regs))
	for i, r := range regs {
		if r != nil {
			j := r.marshal()
			docs[i] = &j
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}
