package obs

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1.0, 100)
	// 100 observations 0.5, 1.5, ..., 99.5: one per bin.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 0.5},    // order statistic 0 → bin 0's midpoint
		{0.5, 49.5}, // ⌊0.5·99⌋ = 49 → bin 49
		{0.9, 89.5}, // ⌊0.9·99⌋ = 89 → bin 89
		{0.99, 98.5},
		{1, 99.5},
		{1.5, 99.5}, // q clamps to 1
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// Overflow order statistics report the upper bound.
	h2 := NewRegistry().Histogram("lat", 1.0, 4)
	for _, x := range []float64{0.5, 1.5, 100, 250} {
		h2.Observe(x)
	}
	if got := h2.Quantile(0.99); got != 4 {
		t.Errorf("overflow Quantile(0.99) = %v, want upper bound 4", got)
	}
	if got := h2.Quantile(0.25); got != 0.5 {
		t.Errorf("Quantile(0.25) = %v, want 0.5", got)
	}

	// Nil and empty are 0.
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile != 0")
	}
	if NewRegistry().Histogram("e", 1, 4).Quantile(0.5) != 0 {
		t.Error("empty histogram Quantile != 0")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 100))
	}
	if q := h.Quantile(0.5); !almost(q, 50, 2) {
		t.Errorf("median %v", q)
	}
	if q := h.Quantile(0.99); !almost(q, 99, 2) {
		t.Errorf("p99 %v", q)
	}
	if q := h.Quantile(0); !almost(q, 0.5, 1) {
		t.Errorf("p0 %v", q)
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(-5)
	h.Observe(1e9)
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(1); q != 10 {
		t.Errorf("overflow quantile = %v, want upper bound 10", q)
	}
}

// TestHistogramMeanExact: the mean is sum/count, not binned, and exact
// over integer observations such as cycle latencies.
func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(10, 5)
	h.Observe(1)
	h.Observe(2)
	if h.Mean() != 1.5 {
		t.Errorf("mean %v should be exact, not binned", h.Mean())
	}
	h = NewHistogram(4, 4096)
	var sum int64
	for i := int64(0); i < 100000; i++ {
		x := (i * 7919) % 20000 // into the overflow bucket too
		h.Observe(float64(x))
		sum += x
	}
	if want := float64(sum) / 100000; h.Mean() != want {
		t.Errorf("mean %v, want exactly %v", h.Mean(), want)
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	for _, shape := range []struct {
		w float64
		n int
	}{{0, 10}, {-1, 10}, {math.NaN(), 10}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v, %d) did not panic", shape.w, shape.n)
				}
			}()
			NewHistogram(shape.w, shape.n)
		}()
	}
}

func TestHistogramNonFiniteObservations(t *testing.T) {
	// NaN and ±Inf must not panic (int(NaN) is the most negative int on
	// amd64, a guaranteed out-of-range bin index without the guards) and
	// must follow the documented semantics: NaN counted apart, +Inf to
	// overflow, -Inf to bin 0.
	h := NewHistogram(2, 4)
	h.Observe(math.NaN())
	if h.Count() != 0 || h.nan != 1 {
		t.Errorf("NaN: Count = %d, nan = %d, want 0/1", h.Count(), h.nan)
	}
	h.Observe(math.Inf(1))
	if h.Count() != 1 || h.overflow != 1 {
		t.Errorf("+Inf: Count=%d overflow=%d, want 1/1", h.Count(), h.overflow)
	}
	h.Observe(math.Inf(-1))
	if h.bins[0] != 1 {
		t.Errorf("-Inf should clamp to bin 0, bins[0]=%d", h.bins[0])
	}
	// Upper-edge value: exactly at the bound is overflow, just below is
	// the last bin even if x/binWidth rounds up.
	h2 := NewHistogram(2, 4)
	h2.Observe(8)
	if h2.overflow != 1 {
		t.Errorf("at-bound value should overflow, overflow=%d", h2.overflow)
	}
	h2.Observe(math.Nextafter(8, 0))
	if h2.bins[3] != 1 {
		t.Errorf("just-below-bound value should land in last bin, bins=%v", h2.bins)
	}
}

// TestHistogramUpperEdgeRounding: with w = 0.1 and 17 bins, the largest
// value below the bound divides to exactly 17.0, one past the last bin.
// Observe clamps it into the last bin instead of indexing out of range.
func TestHistogramUpperEdgeRounding(t *testing.T) {
	w, n := 0.1, 17
	x := math.Nextafter(w*float64(n), 0)
	if int(x/w) != n {
		t.Fatalf("int(x/w) = %d: the case no longer rounds past the last bin", int(x/w))
	}
	h := NewRegistry().Histogram("x", w, n)
	h.Observe(x)
	if h.bins[n-1] != 1 || h.overflow != 0 {
		t.Errorf("bins[%d] = %d, overflow = %d, want 1/0", n-1, h.bins[n-1], h.overflow)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(2, 4)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	if q := h.Quantile(math.NaN()); q != 0 {
		t.Errorf("empty histogram NaN quantile = %v, want 0", q)
	}
	h.Observe(1)
	h.Observe(3)
	h.Observe(5)
	lo, hi := h.Quantile(0), h.Quantile(1)
	if lo != 1 || hi != 5 {
		t.Errorf("Quantile(0), Quantile(1) = %v, %v, want bin midpoints 1, 5", lo, hi)
	}
	if q := h.Quantile(-1); q != lo {
		t.Errorf("q<0 should clamp to 0: %v vs %v", q, lo)
	}
	if q := h.Quantile(2); q != hi {
		t.Errorf("q>1 should clamp to 1: %v vs %v", q, hi)
	}
	if q := h.Quantile(math.NaN()); q != lo {
		t.Errorf("NaN q should clamp to 0: %v vs %v", q, lo)
	}
}
