package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/traffic"
)

func voqCfg(n int, s sched.Scheduler, load float64) VOQConfig {
	return VOQConfig{
		Radix: n, Sched: s, Traffic: traffic.Uniform{Radix: n},
		Load: load, Warmup: 1000, Measure: 5000, Seed: 7,
	}
}

// TestRunVOQLowLoadDeliversOffered pins the open-loop baseline: well
// below saturation every scheduler delivers what is offered, drops
// nothing, and the minimum cell latency of 1 cycle holds.
func TestRunVOQLowLoadDeliversOffered(t *testing.T) {
	const n, load = 32, 0.4
	for name, mk := range map[string]func() sched.Scheduler{
		"islip-1":   func() sched.Scheduler { return sched.NewISLIP(n, 1) },
		"islip-2":   func() sched.Scheduler { return sched.NewISLIP(n, 2) },
		"wavefront": func() sched.Scheduler { return sched.NewWavefront(n) },
	} {
		res, err := RunVOQ(voqCfg(n, mk(), load))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.DroppedInjections != 0 {
			t.Errorf("%s: dropped %d injections at load %.1f", name, res.DroppedInjections, load)
		}
		want := load * n
		if math.Abs(res.AcceptedPackets-want) > 0.05*want {
			t.Errorf("%s: accepted %.2f cells/cycle, want ≈%.2f", name, res.AcceptedPackets, want)
		}
		if res.P50Latency < 1 {
			t.Errorf("%s: p50 latency %.2f < minimum 1 cycle", name, res.P50Latency)
		}
		if res.AcceptedFlits != res.AcceptedPackets {
			t.Errorf("%s: cell mode must report equal flit and packet rates", name)
		}
	}
}

// TestRunVOQUniformSaturationISLIP pins the desynchronization payoff end
// to end: multi-iteration iSLIP under saturated uniform i.i.d. traffic
// sustains ≥95%% of capacity (the acceptance criterion the shootout
// table reports at full fidelity).
func TestRunVOQUniformSaturationISLIP(t *testing.T) {
	const n = 64
	cfg := voqCfg(n, sched.NewISLIP(n, 2), 1.0)
	cfg.Warmup, cfg.Measure = 2000, 10000
	res, err := RunVOQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedPackets < 0.95*float64(n) {
		t.Fatalf("iSLIP-2 accepted %.2f cells/cycle at saturation, want ≥ %.2f",
			res.AcceptedPackets, 0.95*float64(n))
	}
}

// TestRunVOQSpeedupDrainsHotspot pins the speedup axis and the output
// queue: with every input targeting one output, delivery is capped by
// the output's 1 cell/cycle drain regardless of S, and S=2 must not
// disturb that (the output queue absorbs and re-bounds the extra
// matchings).
func TestRunVOQSpeedupDrainsHotspot(t *testing.T) {
	const n = 16
	for _, speedup := range []int{1, 2} {
		cfg := voqCfg(n, sched.NewISLIP(n, 1), 1.0)
		cfg.Traffic = traffic.Hotspot{Target: 3}
		cfg.Speedup = speedup
		res, err := RunVOQ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.AcceptedPackets-1.0) > 0.02 {
			t.Errorf("S=%d: hotspot accepted %.3f cells/cycle, want ≈1.0", speedup, res.AcceptedPackets)
		}
		if !res.Saturated() {
			t.Errorf("S=%d: hotspot at load 1.0 must saturate the VOQs", speedup)
		}
	}
}

// TestRunVOQDeterminism pins that identical configs produce identical
// results, including with observability attached (sinks must not
// perturb the simulation).
func TestRunVOQDeterminism(t *testing.T) {
	const n = 32
	run := func(o *obs.Observer) Result {
		cfg := voqCfg(n, sched.NewISLIP(n, 2), 0.9)
		cfg.Obs = o
		res, err := RunVOQ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(&obs.Observer{
		Metrics:  obs.NewRegistry(),
		Fairness: obs.NewFairnessAudit(n, 1),
	})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observed run diverged from plain run:\n%+v\n%+v", plain, observed)
	}
	if again := run(nil); !reflect.DeepEqual(plain, again) {
		t.Fatalf("re-run diverged:\n%+v\n%+v", plain, again)
	}
}

// TestVOQLoadSweepWorkerInvariance pins the determinism contract for the
// VOQ loop: a sweep over pool.Sweep with a fresh scheduler per point is
// identical at 1, 2 and 4 workers.
func TestVOQLoadSweepWorkerInvariance(t *testing.T) {
	const n = 16
	base := voqCfg(n, nil, 0)
	loads := []float64{0.2, 0.5, 0.8, 1.0}
	sweep := func(workers int) []Result {
		res, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (Result, error) {
			cfg := base
			cfg.Sched, cfg.Load, cfg.Seed = sched.NewISLIP(n, 2), loads[i], seed
			return RunVOQ(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := sweep(1)
	for _, workers := range []int{2, 4} {
		if parallel := sweep(workers); !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d diverged from serial:\n%+v\n%+v", workers, serial, parallel)
		}
	}
}

// TestRunVOQFairnessAudit pins the audit wiring: under a two-flow
// conflict the audit must see both inputs requesting and the win shares
// must be near-equal for the pointer-desynchronized scheduler.
func TestRunVOQFairnessAudit(t *testing.T) {
	const n = 8
	audit := obs.NewFairnessAudit(n, 1)
	cfg := voqCfg(n, sched.NewISLIP(n, 1), 1.0)
	cfg.Traffic = traffic.Fixed{Flows: map[int]int{1: 5, 2: 5}}
	cfg.Obs = &obs.Observer{Fairness: audit}
	if _, err := RunVOQ(cfg); err != nil {
		t.Fatal(err)
	}
	rep := audit.Report()
	if rep.TotalRequests == 0 {
		t.Fatal("audit saw no requests")
	}
	for _, in := range rep.Inputs {
		if in.Input != 1 && in.Input != 2 && in.Requests != 0 {
			t.Fatalf("idle input %d has %d requests", in.Input, in.Requests)
		}
	}
	if rep.JainIndex < 0.99 {
		t.Errorf("two symmetric flows under accept-gated iSLIP: Jain %.4f, want ≈1", rep.JainIndex)
	}
}

// TestRunVOQValidate pins the config error paths.
func TestRunVOQValidate(t *testing.T) {
	bad := []VOQConfig{
		{},
		{Radix: 8, Sched: sched.NewISLIP(8, 1)},
		{Radix: 8, Sched: sched.NewISLIP(16, 1), Traffic: traffic.Uniform{Radix: 8}},
		{Radix: 8, Sched: sched.NewISLIP(8, 1), Traffic: traffic.Uniform{Radix: 8}, Load: -1},
		{Radix: 8, Sched: sched.NewISLIP(8, 1), Traffic: traffic.Uniform{Radix: 8}, Speedup: -1},
	}
	for i, cfg := range bad {
		if _, err := RunVOQ(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunVOQSteadyStateAllocs extends the PR 4 alloc discipline to the
// VOQ mode: with Obs disabled, all allocation is setup; four times the
// cycles must not allocate more.
func TestRunVOQSteadyStateAllocs(t *testing.T) {
	for name, mk := range map[string]func() sched.Scheduler{
		"islip-2":   func() sched.Scheduler { return sched.NewISLIP(64, 2) },
		"wavefront": func() sched.Scheduler { return sched.NewWavefront(64) },
	} {
		t.Run(name, func(t *testing.T) {
			allocs := func(cycles int64) float64 {
				return testing.AllocsPerRun(3, func() {
					cfg := voqCfg(64, mk(), 0.8)
					cfg.Warmup, cfg.Measure = 500, cycles
					if _, err := RunVOQ(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(2000), allocs(8000)
			if long > short+2 {
				t.Errorf("6000 extra cycles allocated %.0f extra times (%.0f -> %.0f); VOQ hot loop no longer allocation-free",
					long-short, short, long)
			}
		})
	}
}

// TestRunVOQLittlesLaw checks RunVOQ against Little's law, L = λW, an
// identity the simulator's bookkeeping does not build in: the mean
// number of cells in the switch (VOQs plus output queues) over the
// measurement window must equal the delivered rate times the mean
// latency. Occupancy comes from the run's own telemetry gauges,
// sampled at the end of every cycle (one-cycle windows, no decimation):
// a cell injected at cycle t and delivered at cycle t+W is in the
// switch at exactly W cycle ends, so the two sides differ only by the
// cells straddling the window's edges. The tolerance is 0.5%; the
// observed gaps are at most 0.05%.
func TestRunVOQLittlesLaw(t *testing.T) {
	const n = 32
	for name, mk := range map[string]func() sched.Scheduler{
		"islip-2":   func() sched.Scheduler { return sched.NewISLIP(n, 2) },
		"wavefront": func() sched.Scheduler { return sched.NewWavefront(n) },
	} {
		for _, speedup := range []int{1, 2} {
			for _, load := range []float64{0.5, 0.8} {
				cfg := voqCfg(n, mk(), load)
				cfg.Speedup = speedup
				total := cfg.Warmup + cfg.Measure
				samp := tele.NewSampler(1, int(total)+2)
				cfg.Obs = &obs.Observer{Tele: samp}
				res, err := RunVOQ(cfg)
				if err != nil {
					t.Fatal(err)
				}
				voqs := samp.Values("sim.queue.occupancy")
				outs := samp.Values("sim.flits.inflight")
				if int64(len(voqs)) != total || samp.Decimations() != 0 {
					t.Fatalf("%s: %d samples, %d decimations; want one per cycle", name, len(voqs), samp.Decimations())
				}
				var occ float64
				for c := cfg.Warmup; c < total; c++ {
					occ += voqs[c] + outs[c]
				}
				l := occ / float64(cfg.Measure)
				lw := res.AcceptedPackets * res.AvgLatency
				if gap := math.Abs(l-lw) / lw; gap > 0.005 {
					t.Errorf("%s S=%d load %.1f: mean occupancy L = %.3f cells, λW = %.3f × %.3f = %.3f (gap %.2f%%)",
						name, speedup, load, l, res.AcceptedPackets, res.AvgLatency, lw, 100*gap)
				}
			}
		}
	}
}
