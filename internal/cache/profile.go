package cache

import (
	"context"
	"fmt"

	"github.com/reprolab/hirise/internal/prng"
)

// ctxCheckInterval is how often, in references, MeasureMissRate polls
// its context: a reference costs tens of nanoseconds, so 4096 of them
// stop a cancelled measurement within a fraction of a millisecond.
const ctxCheckInterval = 4096

// Profile is a synthetic memory-reference generator with the two
// ingredients that set a workload's miss rate: a resident working set
// and a streaming component. It stands in for the paper's Pin traces:
// given a target L1 miss rate, ForMissRate sizes the working set so a
// real LRU cache reproduces it.
type Profile struct {
	// WorkingSetBytes is the span of the randomly re-referenced region.
	WorkingSetBytes uint64
	// StreamFraction of references walk sequentially through a large
	// region instead (compulsory misses once per block).
	StreamFraction float64
	// FarFraction of references land uniformly in a FarBytes region too
	// large for any cache level — they miss L1 and L2 alike, producing
	// memory traffic with the workload's L2 miss ratio.
	FarFraction float64
	// FarBytes sizes the far region (default 1 GiB when FarFraction is
	// set).
	FarBytes uint64
	// BlockBytes aligns the stream walk (use the cache's block size).
	BlockBytes uint64

	streamPos uint64
}

// Next returns the next reference address.
func (p *Profile) Next(rng *prng.Source) uint64 {
	if p.FarFraction > 0 && rng.Bernoulli(p.FarFraction) {
		far := p.FarBytes
		if far == 0 {
			far = 1 << 30
		}
		return 1<<38 + uint64(rng.Intn(int(far)))
	}
	if p.StreamFraction > 0 && rng.Bernoulli(p.StreamFraction) {
		p.streamPos += 4 // sequential word walk through a distant region
		return 1<<40 + p.streamPos
	}
	return uint64(rng.Intn(int(p.WorkingSetBytes)))
}

// ForMissRate sizes a random-access profile so that an LRU cache of the
// given capacity shows approximately the target miss rate: uniform
// re-reference over a working set W on a cache of size S misses at
// ~max(0, 1-S/W). Targets at or above 1 saturate to pure streaming.
func ForMissRate(target float64, c Config) Profile {
	if target >= 0.999 {
		return Profile{StreamFraction: 1, BlockBytes: uint64(c.BlockBytes), WorkingSetBytes: 1}
	}
	if target <= 0 {
		return Profile{WorkingSetBytes: uint64(c.SizeBytes) / 2, BlockBytes: uint64(c.BlockBytes)}
	}
	w := float64(c.SizeBytes) / (1 - target)
	return Profile{WorkingSetBytes: uint64(w), BlockBytes: uint64(c.BlockBytes)}
}

// ForMissRates builds a two-region profile realizing both a target L1
// miss rate and a target L2 miss ratio (the fraction of L1 misses that
// continue to memory): far references miss every level, and the near
// working set is sized for the remaining L1 misses.
func ForMissRates(l1Target, l2Ratio float64, c Config) Profile {
	if l2Ratio <= 0 {
		return ForMissRate(l1Target, c)
	}
	if l2Ratio > 1 {
		l2Ratio = 1
	}
	far := l1Target * l2Ratio
	nearTarget := 0.0
	if far < 1 {
		nearTarget = (l1Target - far) / (1 - far)
	}
	p := ForMissRate(nearTarget, c)
	p.FarFraction = far
	p.FarBytes = 1 << 30
	return p
}

// CalibrateProfile builds a two-region profile and then adjusts its near
// working set against a real cache until the measured L1 miss rate lands
// within ~3% of the target. The adjustment corrects for far-region
// pollution: never-reused far lines evict near lines, shrinking the
// effective capacity below the analytic sizing's assumption. A cancelled
// ctx (nil never cancels) stops it within a few thousand references and
// returns ctx's error.
func CalibrateProfile(ctx context.Context, l1Target, l2Ratio float64, c Config, seed uint64) (Profile, error) {
	p := ForMissRates(l1Target, l2Ratio, c)
	if l1Target <= 0 {
		return p, nil
	}
	far := p.FarFraction
	for iter := 0; iter < 6; iter++ {
		got, err := MeasureMissRate(ctx, p, c, 200000, seed)
		if err != nil {
			return Profile{}, err
		}
		if diff := got - l1Target; diff < 0.03*l1Target+0.001 && diff > -(0.03*l1Target+0.001) {
			break
		}
		// Invert the occupancy model at the measured point: with near
		// miss rate m = 1 - Seff/W, the effective capacity is
		// Seff = W*(1-m); resize W so the same Seff yields the target.
		w := float64(p.WorkingSetBytes)
		mGot := (got - far) / (1 - far)
		mWant := (l1Target - far) / (1 - far)
		if mGot < 0 {
			mGot = 0
		}
		sEff := w * (1 - mGot)
		if mWant <= 0 || mWant >= 1 {
			break // far alone meets or exceeds the target
		}
		w = sEff / (1 - mWant)
		if min := float64(c.SizeBytes) / 4; w < min {
			w = min
		}
		p.WorkingSetBytes = uint64(w)
	}
	return p, nil
}

// MeasureMissRate drives refs references from the profile through a
// fresh cache of the given configuration (after warming it with the
// same count) and returns the steady-state miss rate. It polls ctx (nil
// never cancels) every ctxCheckInterval references and returns ctx's
// error once it is cancelled.
func MeasureMissRate(ctx context.Context, p Profile, c Config, refs int, seed uint64) (float64, error) {
	cc, err := New(c)
	if err != nil {
		return 0, err
	}
	rng := prng.New(seed)
	var warm Stats
	for i := 0; i < 2*refs; i++ {
		if ctx != nil && i%ctxCheckInterval == 0 && ctx.Err() != nil {
			return 0, fmt.Errorf("cache: miss-rate measurement cancelled: %w", ctx.Err())
		}
		if i == refs { // the first refs references only warm the cache
			warm = cc.Stats()
		}
		cc.Access(p.Next(rng), false)
	}
	st := cc.Stats()
	return float64(st.Misses-warm.Misses) / float64(st.Accesses-warm.Accesses), nil
}
