// Package stats provides the measurement machinery shared by the switch
// simulator and the many-core system model: running summaries, per-port
// breakdowns, and fairness metrics. Latency histograms and their
// quantiles live in internal/obs (obs.Histogram).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a running mean/variance/min/max using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Merge folds other into s, as if every observation of other had been
// Added to s.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	min, max := s.min, s.max
	if other.min < min {
		min = other.min
	}
	if other.max > max {
		max = other.max
	}
	*s = Summary{n: n, mean: mean, m2: m2, min: min, max: max}
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// PerPort bundles a Summary per port, for Fig 11(a)/(c) style
// per-input breakdowns.
type PerPort struct {
	Ports []Summary
}

// NewPerPort creates a PerPort for n ports.
func NewPerPort(n int) *PerPort {
	return &PerPort{Ports: make([]Summary, n)}
}

// Add records an observation for port p.
func (pp *PerPort) Add(p int, x float64) {
	pp.Ports[p].Add(x)
}

// Means returns the per-port means.
func (pp *PerPort) Means() []float64 {
	return pp.MeansInto(make([]float64, len(pp.Ports)))
}

// MeansInto writes the per-port means into out (which must span the port
// count) and returns it; the allocation-free form of Means.
func (pp *PerPort) MeansInto(out []float64) []float64 {
	for i := range pp.Ports {
		out[i] = pp.Ports[i].Mean()
	}
	return out
}

// Fairness metrics over a set of per-flow rates.

// JainIndex returns Jain's fairness index of xs: (Σx)² / (n·Σx²).
// 1.0 is perfectly fair; 1/n is maximally unfair. Returns 1 for empty or
// all-zero input.
func JainIndex(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 || len(xs) == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// MaxMinRatio returns max(xs)/min(xs), or +Inf if min is zero while max is
// not, or 1 for empty input.
func MaxMinRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min == 0 {
		if max == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return max / min
}

// Median returns the median of xs (xs is not modified).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}
