package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/store"
)

// voqCLI is the -design voq mode: a flat virtual-output-queued crossbar
// driven by an input-queued scheduler from the zoo (internal/sched)
// instead of a hierarchical switch. It shares the traffic, windowing,
// sweep, observability, and store plumbing with the other designs but
// has its own report (no physical model — the VOQ mode studies matching
// quality, not 3D integration) and its own store key kind, so cached
// hierarchical results can never collide with VOQ ones.
type voqCLI struct {
	common
	schedName   string
	iters       int
	speedup     int
	voqCap      int
	outQCap     int
	makeTraffic func() hirise.TrafficPattern
}

// newSched returns a factory of fresh scheduler instances (schedulers
// carry round-robin pointer state, so every simulation needs its own).
func (v voqCLI) newSched() (func() hirise.Scheduler, error) {
	n, iters := v.sp.Radix, v.iters
	switch v.schedName {
	case "islip":
		if iters < 1 {
			return nil, fmt.Errorf("-iters %d: need at least 1 iSLIP iteration", iters)
		}
		return func() hirise.Scheduler { return hirise.NewISLIPScheduler(n, iters) }, nil
	case "wavefront":
		return func() hirise.Scheduler { return hirise.NewWavefrontScheduler(n) }, nil
	case "mwm":
		return func() hirise.Scheduler { return hirise.NewMWMScheduler(n) }, nil
	}
	return nil, fmt.Errorf("unknown VOQ scheduler %q: want islip | wavefront | mwm", v.schedName)
}

func (v voqCLI) base(ctx context.Context) hirise.VOQSimConfig {
	return hirise.VOQSimConfig{
		Radix: v.sp.Radix, Speedup: v.speedup,
		VOQCap: v.voqCap, OutQCap: v.outQCap,
		Warmup: v.sp.Warmup, Measure: v.sp.Measure, Seed: v.sp.Seed,
		ConvergeStop: v.convergeStop,
		Ctx:          ctx,
	}
}

// schedLabel renders the scheduler for the report header.
func (v voqCLI) schedLabel() string {
	if v.schedName == "islip" {
		return fmt.Sprintf("iSLIP x%d", v.iters)
	}
	return v.schedName
}

// runSingle simulates one load and prints the VOQ report to w.
func (v voqCLI) runSingle(ctx context.Context, w io.Writer) error {
	newSched, err := v.newSched()
	if err != nil {
		return err
	}
	cfg := v.base(ctx)
	cfg.Sched = newSched()
	cfg.Traffic = v.makeTraffic()
	cfg.Load = v.load
	res, observer, err := observed(v.common, func(o *hirise.Observer) (hirise.SimResult, error) {
		cfg.Obs = o
		return hirise.SimulateVOQ(cfg)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "design      voq %dx%d, %s, speedup %d, voqcap %d, outqcap %d\n",
		v.sp.Radix, v.sp.Radix, v.schedLabel(), v.speedup, v.voqCap, v.outQCap)
	fmt.Fprintf(w, "traffic     %s @ %.4f cells/cycle/input\n", v.sp.Traffic, v.load)
	fmt.Fprintf(w, "accepted    %.3f cells/cycle/input (%.3f switch-wide)\n",
		res.AcceptedPackets/float64(v.sp.Radix), res.AcceptedPackets)
	fmt.Fprintf(w, "latency     avg %.1f cycles, p50 %.0f, p99 %.0f\n",
		res.AvgLatency, res.P50Latency, res.P99Latency)
	fmt.Fprintf(w, "cells       injected %d, delivered %d, dropped-at-voq %d%s\n",
		res.Injected, res.Delivered, res.DroppedInjections,
		map[bool]string{true: "  (saturated)", false: ""}[res.Saturated()])
	// Gated like the hierarchical report: stdout is unchanged unless a
	// sampler actually ran.
	if (observer != nil && observer.Tele != nil) || v.convergeStop {
		fmt.Fprintf(w, "steady      converged=%v suggested-warmup=%d cycles\n",
			res.Converged, res.WarmupCycles)
	}
	if v.perInput {
		fmt.Fprintln(w, "\ninput  latency(cycles)  cells/cycle")
		for i := range res.PerInputLatency {
			fmt.Fprintf(w, "%5d  %15.1f  %11.5f\n", i, res.PerInputLatency[i], res.PerInputPackets[i])
		}
	}
	return nil
}

// runSweep simulates every load and prints the VOQ sweep table to w.
func (v voqCLI) runSweep(ctx context.Context, w io.Writer) error {
	newSched, err := v.newSched()
	if err != nil {
		return err
	}
	var started atomic.Int64
	countedSched := func() hirise.Scheduler {
		started.Add(1)
		return newSched()
	}
	base := v.base(ctx)
	results, err := observedSweep(ctx, v.common, base.Seed, func() string {
		return fmt.Sprintf("%d/%d sweep points started", started.Load(), len(v.loads))
	}, func(i int, seed uint64, o *hirise.Observer) (hirise.SimResult, error) {
		c := base
		c.Sched, c.Traffic = countedSched(), v.makeTraffic()
		c.Load, c.Seed, c.Obs = v.loads[i], seed, o
		return hirise.SimulateVOQ(c)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-14s %-10s %-8s %s\n",
		"load(cel/cyc)", "tput(cel/cyc)", "lat(cyc)", "p99(cyc)", "state")
	for i, res := range results {
		state := "ok"
		if res.Saturated() {
			state = "saturated"
		}
		fmt.Fprintf(w, "%-14.4f %-14.4f %-10.2f %-8.0f %s\n",
			v.loads[i], res.AcceptedPackets/float64(v.sp.Radix), res.AvgLatency, res.P99Latency, state)
	}
	return nil
}

// storeKey derives the content-addressed result key of this VOQ run.
// The kind "voq-sim" namespaces it away from the hierarchical designs'
// "sim" keys, whose payload struct stays untouched by the VOQ mode.
func (v voqCLI) storeKey(st *store.Store) (store.Key, error) {
	return st.KeyOf("voq-sim", struct {
		Sched, Traffic                         string
		Radix, Iters, Speedup, VOQCap, OutQCap int
		Target                                 int
		Burst, Load                            float64
		Loads                                  []float64
		PerInput                               bool
		Warmup, Measure                        int64
		Seed                                   uint64
		// omitempty keeps keys hashed before the flag existed valid for
		// full-length runs.
		ConvergeStop bool `json:"converge_stop,omitempty"`
	}{
		v.schedName, v.sp.Traffic,
		v.sp.Radix, v.iters, v.speedup, v.voqCap, v.outQCap,
		v.sp.Target,
		v.sp.Burst, v.load,
		v.loads,
		v.perInput,
		v.sp.Warmup, v.sp.Measure,
		v.sp.Seed,
		v.convergeStop,
	})
}
