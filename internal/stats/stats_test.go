package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/reprolab/hirise/internal/prng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 3, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	if !almost(s.Variance(), 2.5, 1e-12) {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		var all, a, b Summary
		for i := 0; i < 200; i++ {
			x := src.Float64()*100 - 50
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almost(a.Mean(), all.Mean(), 1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-6) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(2)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a != before {
		t.Fatal("merge with empty changed summary")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
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
	h.Add(-5)
	h.Add(1e9)
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	if q := h.Quantile(1); q != 10 {
		t.Errorf("overflow quantile = %v, want upper bound 10", q)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(10, 5)
	h.Add(1)
	h.Add(2)
	if !almost(h.Mean(), 1.5, 1e-12) {
		t.Errorf("mean %v should be exact, not binned", h.Mean())
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 10)
}

func TestPerPort(t *testing.T) {
	pp := NewPerPort(4)
	pp.Add(0, 10)
	pp.Add(0, 20)
	pp.Add(3, 5)
	means := pp.Means()
	if !almost(means[0], 15, 1e-12) || means[1] != 0 || !almost(means[3], 5, 1e-12) {
		t.Errorf("means %v", means)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); !almost(j, 1, 1e-12) {
		t.Errorf("equal flows: %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); !almost(j, 0.25, 1e-12) {
		t.Errorf("one flow: %v", j)
	}
	if j := JainIndex(nil); j != 1 {
		t.Errorf("empty: %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Errorf("all zero: %v", j)
	}
}

func TestJainIndexRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		xs := make([]float64, 1+src.Intn(32))
		for i := range xs {
			xs[i] = src.Float64()
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinRatio(t *testing.T) {
	if r := MaxMinRatio([]float64{2, 4, 8}); !almost(r, 4, 1e-12) {
		t.Errorf("ratio %v", r)
	}
	if r := MaxMinRatio([]float64{0, 1}); !math.IsInf(r, 1) {
		t.Errorf("zero min should be Inf, got %v", r)
	}
	if r := MaxMinRatio([]float64{0, 0}); r != 1 {
		t.Errorf("all zero should be 1, got %v", r)
	}
	if r := MaxMinRatio(nil); r != 1 {
		t.Errorf("empty should be 1, got %v", r)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); !almost(m, 2.5, 1e-12) {
		t.Errorf("even median %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
	xs := []float64{5, 1, 9}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 9 {
		t.Error("Median mutated its input")
	}
}

func TestHistogramNonFiniteObservations(t *testing.T) {
	// NaN and ±Inf must not panic (int(NaN) is the most negative int on
	// amd64, a guaranteed out-of-range bin index without the guards) and
	// must follow the documented semantics: NaN discarded, +Inf to
	// overflow, -Inf to bin 0.
	h := NewHistogram(2, 4)
	h.Add(math.NaN())
	if h.N() != 0 {
		t.Errorf("NaN counted: N = %d", h.N())
	}
	h.Add(math.Inf(1))
	if h.N() != 1 || h.overflow != 1 {
		t.Errorf("+Inf: N=%d overflow=%d, want 1/1", h.N(), h.overflow)
	}
	h.Add(math.Inf(-1))
	if h.bins[0] != 1 {
		t.Errorf("-Inf should clamp to bin 0, bins[0]=%d", h.bins[0])
	}
	// Upper-edge value: exactly at the bound is overflow, just below is
	// the last bin even if x/binWidth rounds up.
	h2 := NewHistogram(2, 4)
	h2.Add(8)
	if h2.overflow != 1 {
		t.Errorf("at-bound value should overflow, overflow=%d", h2.overflow)
	}
	h2.Add(math.Nextafter(8, 0))
	if h2.bins[3] != 1 {
		t.Errorf("just-below-bound value should land in last bin, bins=%v", h2.bins)
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
	h.Add(1)
	h.Add(3)
	h.Add(5)
	lo, hi := h.Quantile(0), h.Quantile(1)
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

func TestSummaryEmptyMinMax(t *testing.T) {
	var s Summary
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty summary min/max = %v/%v, want 0/0", s.Min(), s.Max())
	}
	s.Add(-3)
	if s.Min() != -3 || s.Max() != -3 {
		t.Fatalf("single observation min/max = %v/%v", s.Min(), s.Max())
	}
}
