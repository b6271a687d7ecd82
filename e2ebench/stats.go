package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples: the smallest
// sample with at least ceil(q·n) samples at or below it. It is computed
// from the raw samples, never from binned histograms, so p50, p90 and
// p99 of a tight distribution stay distinct. samples must be sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// beyond counts the samples that lie past the nearest-rank q-quantile of
// n samples. A quantile is only reported as measured when at least
// minTail samples lie beyond it.
func beyond(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		return 0
	}
	return n - r
}

// minTail is the number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// tailWindow is the number of samples in one tail window: the fewest
// that leave minTail samples beyond a p99.
const tailWindow = 1000

// windowedQuantile splits samples, in the order they were taken, into
// as many consecutive windows of at least tailWindow samples as fit
// (at least one), takes the nearest-rank q-quantile of each, and
// returns their median and the window count. A host stall that hits one
// window then moves the reported tail no further than that window's
// rank among the rest.
func windowedQuantile(inOrder []float64, q float64) (float64, int) {
	k := len(inOrder) / tailWindow
	if k < 1 {
		k = 1
	}
	per := make([]float64, k)
	for w := range per {
		lo, hi := w*len(inOrder)/k, (w+1)*len(inOrder)/k
		per[w] = quantile(sortedCopy(inOrder[lo:hi]), q)
	}
	return median(per), k
}

// median returns the middle of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
