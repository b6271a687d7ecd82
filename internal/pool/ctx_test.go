package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reprolab/hirise/internal/leakcheck"
)

func TestDoCtxNilContextRunsEverything(t *testing.T) {
	leakcheck.Check(t)
	var ran atomic.Int64
	if err := do(nil, 100, 4, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
}

func TestDoCtxCompletedRunMatchesDo(t *testing.T) {
	leakcheck.Check(t)
	var ran atomic.Int64
	if err := do(context.Background(), 50, 3, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
}

// TestDoCtxCancelSkipsPendingTasks: cancelling mid-run returns the ctx
// error, in-flight tasks finish, and not-yet-started tasks never run —
// the "stops within one sweep point" contract.
func TestDoCtxCancelSkipsPendingTasks(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	const n, workers = 64, 2
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	err := do(ctx, n, workers, func(i int) {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The two in-flight tasks (plus at most one already claimed per
	// worker before observing cancellation) may run; the rest must not.
	if got := started.Load(); got > int64(2*workers) {
		t.Fatalf("%d tasks started after cancellation, want <= %d", got, 2*workers)
	}
}

// TestDoCtxRepanicsAfterCancel: a panicking task re-raises even when
// the same run was cancelled. Cancellation reaches callers as an error,
// so a panic is always a bug and must never be swallowed.
func TestDoCtxRepanicsAfterCancel(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		func() {
			defer func() {
				if r := recover(); r != "task crashed" {
					t.Errorf("workers=%d: recovered %v, want the task's panic", workers, r)
				}
			}()
			do(ctx, 8, workers, func(i int) {
				cancel()
				panic("task crashed")
			})
		}()
	}
}

func TestDoCtxPreCancelledRunsNothing(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := do(ctx, 100, 4, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may claim at most one task each before observing the
	// cancelled ctx; serial mode claims none.
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d tasks ran under a pre-cancelled ctx", got)
	}
}

func TestDoCtxSerialCancel(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := do(ctx, 100, 1, func(i int) {
		ran++
		if i == 4 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 5 {
		t.Fatalf("serial run executed %d tasks after cancel at 5", ran)
	}
}
