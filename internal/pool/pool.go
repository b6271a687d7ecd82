// Package pool is the bounded, deterministic worker-pool engine behind
// every embarrassingly-parallel sweep in the repository: per-point load
// sweeps, per-seed replication runs, physical parameter sweeps, and the
// whole-experiment fan-out of cmd/hirise-bench.
//
// Determinism is the package's contract. Work is identified by task
// index, never by worker identity: results are written to index-ordered
// slots, PRNG streams are derived from stable task coordinates via
// SeedFor (splitmix64 over the base seed and the coordinate tuple), and
// panics re-raise deterministically (the lowest-index panic wins after
// all tasks finish). Consequently the output of a sweep is byte-identical
// at any worker count, including 1.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and waits for all of them. workers == 1 runs serially on
// the calling goroutine. Task order of *completion* is unspecified, so
// fn must only write state owned by its index; anything reduced from
// those per-index slots afterwards is then independent of scheduling.
//
// If one or more tasks panic, Do waits for the remaining tasks and then
// re-panics with the value from the lowest-index panicking task, so the
// surfaced failure does not depend on goroutine scheduling either.
func Do(n, workers int, fn func(i int)) {
	do(nil, n, workers, fn)
}

// do is Do with cooperative cancellation: once ctx (nil never cancels)
// is cancelled no new task starts, already-running tasks finish (they
// observe the same ctx through their own plumbing if they want to stop
// early), and the ctx error is returned. Which tasks ran after a
// cancellation depends on scheduling, so whatever they wrote is garbage;
// Sweep discards it. A panicking task re-panics as in Do, cancelled or
// not.
func do(ctx context.Context, n, workers int, fn func(i int)) error {
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	// n <= 0 leaves no workers, and no task runs.
	workers = min(Workers(workers), max(n, 0))

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
	)
	next.Store(-1)
	runTask := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicIdx < 0 || i < panicIdx {
					panicIdx, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	if workers == 1 {
		// Serial fast path: no goroutine overhead for -parallel 1 runs,
		// but the same run-everything-then-re-panic contract as the
		// concurrent path so failure behaviour is worker-count-invariant.
		for i := 0; i < n && !cancelled(); i++ {
			runTask(i)
		}
	} else {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !cancelled() {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					runTask(i)
				}
			}()
		}
		wg.Wait()
	}
	if panicIdx >= 0 {
		panic(panicVal)
	}
	if cancelled() {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the results in index order, regardless of the
// order in which tasks completed.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// Sweep runs point(i, SeedFor(base, uint64(i))) for every i in [0, n)
// on at most Workers(workers) goroutines and returns the results in
// index order. It is the one driver behind every load sweep: each point
// builds its own state (switch, scheduler, traffic, observer) inside
// point, and its seed comes from the caller's raw base seed and the
// point index alone, so the results are identical at every worker
// count. A cancelled ctx (nil never cancels) returns nil and ctx.Err(),
// discarding whatever points completed; otherwise the lowest-index
// error wins, as it would in a serial loop.
func Sweep[R any](ctx context.Context, n, workers int, base uint64, point func(i int, seed uint64) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	if err := do(ctx, n, workers, func(i int) {
		out[i], errs[i] = point(i, SeedFor(base, uint64(i)))
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitmix64 is the finalizer of the splitmix64 generator, used here as
// a mixing function for seed derivation (the same construction
// internal/prng uses to expand seeds into xoshiro state).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeedFor derives a task's PRNG seed from a base seed and the task's
// stable coordinates — typically (experiment ID, point index, seed
// index). Each coordinate is folded in with splitmix64, so distinct
// tuples yield statistically independent streams while the same tuple
// always yields the same seed. Seeds must never be derived from worker
// identity or completion order; deriving them from coordinates is what
// makes parallel sweeps reproduce serial output exactly.
func SeedFor(base uint64, coords ...uint64) uint64 {
	h := splitmix64(base)
	for _, c := range coords {
		h = splitmix64(h ^ splitmix64(c))
	}
	return h
}

// StringID hashes an experiment identifier into a seed coordinate for
// SeedFor (FNV-1a, stable across runs and platforms).
func StringID(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
