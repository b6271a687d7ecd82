package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCtxCancelDiscardsPartialTable: a cancelled experiment returns
// the ctx error and no table — callers never see partially-filled
// results.
func TestRunCtxCancelDiscardsPartialTable(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 10_000_000, 2_000_000_000 // far too long to finish
	o.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	tb, err := RunCtx(ctx, "table1", o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tb != nil {
		t.Fatalf("cancelled run returned a table: %+v", tb)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled experiment took %v to abort", d)
	}
}

// TestRunCtxBackgroundMatchesRun: threading a live ctx through must not
// change results.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 500, 2000
	o.Workers = 2
	r, err := Get("fig9a") // analytic: fast and exactly reproducible
	if err != nil {
		t.Fatal(err)
	}
	plain := mustRun(t, r, o)
	viaCtx, err := RunCtx(context.Background(), "fig9a", o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != viaCtx.String() {
		t.Fatalf("RunCtx output diverged from direct run:\n%s\nvs\n%s", plain, viaCtx)
	}
}

// TestProgressCalledPerTask: Opts.Progress fires once per completed
// simulation task, the hook the job server's progress events rely on.
func TestProgressCalledPerTask(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 200, 500
	o.Workers = 1
	var calls int
	o.Progress = func() { calls++ }
	if _, err := RunCtx(context.Background(), "fig9a", o); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress never called")
	}
}

// TestRunCtxRejectsNegativeWindows: a negative window is an error that
// names the field and value, returned before any simulation runs (the
// simulator would panic on it inside a worker).
func TestRunCtxRejectsNegativeWindows(t *testing.T) {
	for _, tc := range []struct {
		warmup, measure int64
		want            string
	}{
		{-5, 0, "warmup -5"},
		{0, -5, "measure -5"},
	} {
		o := QuickOpts()
		o.Warmup, o.Measure = tc.warmup, tc.measure
		ran := false
		o.Progress = func() { ran = true }
		tb, err := RunCtx(context.Background(), "fig10", o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("warmup=%d measure=%d: err = %v, want one naming %q", tc.warmup, tc.measure, err, tc.want)
		}
		if tb != nil || ran {
			t.Errorf("warmup=%d measure=%d: the experiment ran", tc.warmup, tc.measure)
		}
	}
}

// TestRunCtxCancelEveryExperiment: cancelling any registered experiment
// mid-run returns context.Canceled and no table, or a complete table,
// and never panics. Every experiment gets windows far too long to
// finish, so the cancel lands inside any simulation it runs: the cycle
// loops, the many-core system and the cache calibration all poll ctx.
func TestRunCtxCancelEveryExperiment(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			o := QuickOpts()
			o.Workers = 2
			o.Warmup, o.Measure = 10_000_000, 2_000_000_000
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(20*time.Millisecond, cancel)
			tb, err := RunCtx(ctx, id, o)
			switch {
			case errors.Is(err, context.Canceled):
				if tb != nil {
					t.Fatalf("cancelled run returned a table: %+v", tb)
				}
			case err != nil:
				t.Fatalf("err = %v, want context.Canceled or a table", err)
			case tb == nil || len(tb.Rows) == 0:
				t.Fatal("no error and no table")
			}
		})
	}
}

// TestSweepReturnsLowestIndexError: a failing task's error comes back
// as a value, the lowest index first as in a serial loop, and Progress
// still fires once per task.
func TestSweepReturnsLowestIndexError(t *testing.T) {
	var calls atomic.Int64
	o := Opts{Workers: 3, Progress: func() { calls.Add(1) }}
	first, later := errors.New("task 3"), errors.New("task 5")
	_, err := sweep(o, 8, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, first
		case 5:
			return 0, later
		}
		return i, nil
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want %v", err, first)
	}
	if n := calls.Load(); n != 8 {
		t.Fatalf("Progress fired %d times, want 8", n)
	}
}
