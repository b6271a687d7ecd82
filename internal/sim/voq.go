package sim

import (
	"context"
	"fmt"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/tele"
)

// VOQConfig parameterizes one virtual-output-queued simulation run
// (RunVOQ). Where Config models the paper's switches behind a
// single-FIFO head-of-line view per input, VOQConfig models the Tiny
// Tera style cell switch: every input keeps one queue per output, an
// input-queued scheduler (internal/sched) computes a crossbar matching
// per scheduling phase, and an internal speedup S runs S phases per
// cell time into small bounded output queues.
//
// The VOQ mode is cell-based: a packet is one cell (one flit), so the
// accepted packet and flit rates coincide and there is no per-packet
// occupancy tail like Config.PacketFlits models. That matches the
// scheduler literature's setup and keeps the shootout focused on
// matching quality rather than connection lifecycles.
type VOQConfig struct {
	// Radix is the port count; must equal Sched.N().
	Radix int
	// Sched computes the per-phase matching. Schedulers are stateful
	// (round-robin pointers); a config must own its instance.
	Sched sched.Scheduler
	// Traffic produces the offered load, exactly as in Config.
	Traffic Traffic
	// Load is the offered load in cells per cycle per input.
	Load float64
	// Speedup is the internal crossbar speedup S (Tiny Tera §: the
	// fabric runs S matching+transfer phases per external cell time).
	// Default 1.
	Speedup int
	// VOQCap bounds each (input, output) virtual output queue in cells;
	// injections arriving at a full VOQ are counted and discarded
	// (Result.DroppedInjections), capping offered load past saturation.
	// Default 32.
	VOQCap int
	// OutQCap bounds each output queue in cells; outputs with a full
	// queue are masked from scheduling. It only binds when Speedup > 1
	// (at S=1 an output receives at most one cell per cycle and drains
	// one). Default 16.
	OutQCap int
	// Warmup and Measure are the cycle windows, as in Config.
	Warmup, Measure int64
	// Seed drives all stochastic choices.
	Seed uint64
	// Ctx, when non-nil, makes the run cancellable (see Config.Ctx).
	Ctx context.Context
	// Obs attaches observability sinks (see Config.Obs). The fairness
	// audit sees one Observe call per requesting input per scheduling
	// phase, all under class 0.
	Obs *obs.Observer
	// ConvergeStop ends the run early once the MSER steady-state
	// detector converges, exactly as in Config.ConvergeStop.
	ConvergeStop bool
}

// Defaults fills unset fields. As in Config.Defaults, zero means
// "unset": Seed 0 becomes 1, Warmup 0 the 10000-cycle default.
func (c *VOQConfig) Defaults() {
	if c.Speedup == 0 {
		c.Speedup = 1
	}
	if c.VOQCap == 0 {
		c.VOQCap = 32
	}
	if c.OutQCap == 0 {
		c.OutQCap = 16
	}
	if c.Warmup == 0 {
		c.Warmup = 10000
	}
	if c.Measure == 0 {
		c.Measure = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *VOQConfig) validate() error {
	switch {
	case c.Sched == nil:
		return fmt.Errorf("sim: no scheduler")
	case c.Traffic == nil:
		return fmt.Errorf("sim: no traffic")
	case c.Radix <= 0:
		return fmt.Errorf("sim: non-positive radix %d", c.Radix)
	case c.Sched.N() != c.Radix:
		return fmt.Errorf("sim: scheduler over %d ports driving a radix-%d switch", c.Sched.N(), c.Radix)
	case c.Load < 0:
		return fmt.Errorf("sim: negative load %v", c.Load)
	case c.Speedup < 1 || c.VOQCap < 1 || c.OutQCap < 1:
		return fmt.Errorf("sim: non-positive structural parameter")
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("sim: bad windows warmup=%d measure=%d", c.Warmup, c.Measure)
	}
	return nil
}

// outCell is one cell in an output queue; the source input rides along
// for the per-input latency accounting.
type outCell struct {
	birth int64
	in    int32
}

// RunVOQ executes one VOQ simulation and returns its measurements. The
// per-cycle order is: S scheduling phases (each moves at most one cell
// per matched input from its VOQ head into the matched output's queue),
// then each output delivers one cell, then inputs inject. A cell
// injected at cycle t is thus schedulable at t+1 and its minimum
// latency is 1 cycle.
func RunVOQ(cfg VOQConfig) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Radix

	// Telemetry plane (see Run): nil-safe windowed series over the run,
	// read from the event counters below.
	samp := cfg.Obs.Sampler()
	if samp == nil && cfg.ConvergeStop {
		samp = tele.NewSampler(0, 0)
	}
	rec := cfg.Obs.Rec()
	audit := cfg.Obs.Audit()
	mInjected := cfg.Obs.TrackedCounter(samp, "sim.packets.injected")
	mDelivered := cfg.Obs.TrackedCounter(samp, teleDeliveredSeries)
	mDropped := cfg.Obs.TrackedCounter(samp, "sim.packets.dropped")
	mFlits := cfg.Obs.Counter("sim.flits.delivered")
	mWins := cfg.Obs.TrackedCounter(samp, "sim.arb.wins")
	mLosses := cfg.Obs.TrackedCounter(samp, "sim.arb.losses")
	mLatency := cfg.Obs.Histogram("sim.latency.cycles", 4, 4096)
	cfg.Obs.Gauge("sim.offered.load").Set(cfg.Load)

	root := prng.New(cfg.Seed)
	rngs := make([]*prng.Source, n)
	for i := range rngs {
		rngs[i] = root.Split()
	}

	// VOQ state: one bounded ring of birth cycles per (input, output)
	// pair, flattened. voqLen doubles as the scheduler's queue-length
	// weight vector.
	voqBuf := make([]int64, n*n*cfg.VOQCap)
	voqHead := make([]int32, n*n)
	voqLen := make([]int32, n*n)
	voqBits := make([]bitvec.Vec, n) // per input: outputs with a non-empty VOQ
	req := make([]bitvec.Vec, n)
	for i := range voqBits {
		voqBits[i] = bitvec.New(n)
		req[i] = bitvec.New(n)
	}
	outOK := bitvec.New(n) // outputs with output-queue room
	outOK.SetFirstN(n)
	outBuf := make([]outCell, n*cfg.OutQCap)
	outHead := make([]int32, n)
	outLen := make([]int32, n)
	match := make([]int, n)

	if samp != nil {
		// Level tracks: cells waiting across all VOQs, and cells parked
		// in output queues awaiting their drain slot.
		samp.GaugeFunc("sim.queue.occupancy", func() float64 {
			var occ int32
			for _, l := range voqLen {
				occ += l
			}
			return float64(occ)
		})
		samp.GaugeFunc("sim.flits.inflight", func() float64 {
			var fl int32
			for _, l := range outLen {
				fl += l
			}
			return float64(fl)
		})
	}

	hist := obs.NewHistogram(4, 4096)
	perLat := stats.NewPerPort(n)
	perPkt := make([]int64, n)
	var injected, delivered, dropped int64

	total := cfg.Warmup + cfg.Measure
	var stoppedAt int64 // cycle count at a ConvergeStop early exit, 0 = ran full length
	for cycle := int64(0); cycle < total; cycle++ {
		if cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, cfg.Ctx.Err())
		}
		measuring := cycle >= cfg.Warmup

		// 1. S scheduling phases. Requests are the non-empty VOQs toward
		// outputs with queue room; each phase computes one matching.
		for phase := 0; phase < cfg.Speedup; phase++ {
			any := false
			for in := 0; in < n; in++ {
				req[in].Copy(voqBits[in])
				req[in].And(outOK)
				if !any && req[in].Any() {
					any = true
				}
			}
			if !any {
				break
			}
			cfg.Sched.Schedule(req, voqLen, match)
			for in := 0; in < n; in++ {
				requested := req[in].Any()
				o := match[in]
				if audit != nil && requested {
					audit.Observe(in, 0, o >= 0)
				}
				if o < 0 {
					if requested {
						mLosses.Inc()
						rec.Record(cycle, obs.EvArbLose, in, req[in].First(), phase)
					}
					continue
				}
				mWins.Inc()
				rec.Record(cycle, obs.EvArbWin, in, o, phase)
				// Move the VOQ head cell into the output queue.
				vi := in*n + o
				birth := voqBuf[vi*cfg.VOQCap+int(voqHead[vi])]
				if voqHead[vi]++; voqHead[vi] == int32(cfg.VOQCap) {
					voqHead[vi] = 0
				}
				if voqLen[vi]--; voqLen[vi] == 0 {
					voqBits[in].Clear(o)
				}
				oi := (outHead[o] + outLen[o]) % int32(cfg.OutQCap)
				outBuf[o*cfg.OutQCap+int(oi)] = outCell{birth: birth, in: int32(in)}
				if outLen[o]++; outLen[o] == int32(cfg.OutQCap) {
					outOK.Clear(o)
				}
			}
		}

		// 2. Each output delivers one cell per cycle.
		for o := 0; o < n; o++ {
			if outLen[o] == 0 {
				continue
			}
			cell := outBuf[o*cfg.OutQCap+int(outHead[o])]
			if outHead[o]++; outHead[o] == int32(cfg.OutQCap) {
				outHead[o] = 0
			}
			outLen[o]--
			outOK.Set(o)
			lat := cycle - cell.birth
			in := int(cell.in)
			if measuring {
				hist.Observe(float64(lat))
				perLat.Add(in, float64(lat))
				perPkt[in]++
				delivered++
			}
			mDelivered.Inc()
			mFlits.Inc()
			mLatency.Observe(float64(lat))
			rec.Record(cycle, obs.EvEject, in, o, int(lat))
		}

		// 3. Inject new cells into the VOQs.
		for in := 0; in < n; in++ {
			dest, ok := cfg.Traffic.Next(in, cycle, cfg.Load, rngs[in])
			if !ok {
				continue
			}
			vi := in*n + dest
			if voqLen[vi] == int32(cfg.VOQCap) {
				if measuring {
					dropped++
				}
				mDropped.Inc()
				rec.Record(cycle, obs.EvDrop, in, dest, 0)
				continue
			}
			ti := (voqHead[vi] + voqLen[vi]) % int32(cfg.VOQCap)
			voqBuf[vi*cfg.VOQCap+int(ti)] = cycle
			voqLen[vi]++
			voqBits[in].Set(dest)
			if measuring {
				injected++
			}
			mInjected.Inc()
			rec.Record(cycle, obs.EvInject, in, dest, 0)
		}

		// 4. Telemetry window close and ConvergeStop check (see Run).
		if samp.Tick(cycle+1) && cfg.ConvergeStop &&
			cycle+1 >= cfg.Warmup+(cfg.Measure+7)/8 &&
			samp.Windows() >= convergeMinWindows {
			if _, ok := tele.MSER(samp.Values(teleDeliveredSeries)); ok {
				stoppedAt = cycle + 1
				break
			}
		}
	}

	measured := float64(cfg.Measure)
	if stoppedAt > 0 {
		measured = float64(stoppedAt - cfg.Warmup)
	}
	res := Result{
		OfferedLoad:       cfg.Load,
		AcceptedFlits:     float64(delivered) / measured,
		AcceptedPackets:   float64(delivered) / measured,
		AvgLatency:        hist.Mean(),
		P50Latency:        hist.Quantile(0.5),
		P99Latency:        hist.Quantile(0.99),
		PerInputLatency:   perLat.Means(),
		PerInputPackets:   make([]float64, n),
		Injected:          injected,
		Delivered:         delivered,
		DroppedInjections: dropped,
	}
	for i, c := range perPkt {
		res.PerInputPackets[i] = float64(c) / measured
	}
	if samp != nil {
		cut, conv := tele.MSER(samp.Values(teleDeliveredSeries))
		res.Converged = conv
		if conv {
			res.WarmupCycles = int64(cut) * samp.Window()
		}
	}
	return res, nil
}

// VOQLoadSweep runs the VOQ configuration at each load on at most
// workers concurrent simulations and returns the results in load order,
// mirroring LoadSweep: each point gets a fresh scheduler from newSched
// (schedulers carry pointer state) and, when newTraffic is non-nil, its
// own traffic instance, and derives its seed from (base.Seed, point
// index) via pool.SeedFor, so results are identical at every worker
// count.
func VOQLoadSweep(base VOQConfig, newSched func() sched.Scheduler, newTraffic func() Traffic, loads []float64, workers int) ([]Result, error) {
	return VOQLoadSweepObserved(base, newSched, newTraffic, loads, workers, nil)
}

// VOQLoadSweepObserved is VOQLoadSweep with per-point observability,
// with the same obsFor contract as LoadSweepObserved.
func VOQLoadSweepObserved(base VOQConfig, newSched func() sched.Scheduler, newTraffic func() Traffic, loads []float64, workers int, obsFor func(i int) *obs.Observer) ([]Result, error) {
	out := make([]Result, len(loads))
	errs := make([]error, len(loads))
	pool.DoCtx(base.Ctx, len(loads), workers, func(i int) {
		cfg := base
		if newSched != nil {
			cfg.Sched = newSched()
		}
		if newTraffic != nil {
			cfg.Traffic = newTraffic()
		}
		if obsFor != nil {
			cfg.Obs = obsFor(i)
		}
		cfg.Load = loads[i]
		cfg.Seed = pool.SeedFor(base.Seed, uint64(i))
		out[i], errs[i] = RunVOQ(cfg)
	})
	if base.Ctx != nil && base.Ctx.Err() != nil {
		return nil, base.Ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
