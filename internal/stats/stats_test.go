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
