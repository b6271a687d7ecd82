// Package sim is the cycle-accurate, flit-level network simulator used to
// evaluate every switch configuration (paper §V). It models the paper's
// setup: 4 virtual channels per input port with a buffer depth of 4 flits
// each, 128-bit flits, 4-flit packets, and open-loop injection from a
// finite source queue.
//
// Timing follows the Swizzle-Switch connection lifecycle: the output bus
// doubles as the priority bus, so a packet costs one arbitration cycle
// plus PacketFlits data cycles of output occupancy; peak utilization is
// PacketFlits/(PacketFlits+1) flits per cycle per port. The simulator
// counts in switch cycles — internal/phys converts to nanoseconds and
// Tbps at each configuration's clock.
package sim

import (
	"context"
	"fmt"
	"math"

	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

// Switch is the arbitration-and-connection view the simulator drives; it
// is implemented by crossbar.Switch (2D, folded) and core.Switch
// (Hi-Rise).
type Switch interface {
	// Radix returns the port count.
	Radix() int
	// Arbitrate runs one arbitration cycle over the per-input requested
	// outputs (-1 for none) and returns the connections formed.
	Arbitrate(req []int) []topo.Grant
	// Release frees the connection held by an input after its last flit.
	Release(in int)
}

// Traffic produces the offered load. Implementations live in
// internal/traffic.
type Traffic interface {
	// Next reports whether input injects a new packet this cycle at the
	// given offered load (packets/cycle/input) and, if so, its
	// destination output. rng is the input's private stream.
	Next(input int, cycle int64, load float64, rng *prng.Source) (dest int, inject bool)
}

// Config parameterizes one simulation run.
type Config struct {
	Switch  Switch
	Traffic Traffic
	// Load is the offered load in packets per cycle per input.
	Load float64
	// PacketFlits is the packet length (paper: 4 flits of 128 bits); at
	// most MaxPacketFlits.
	PacketFlits int
	// VCs is the number of virtual channels per input (paper: 4), each
	// holding one packet (depth 4 flits); at most 64.
	VCs int
	// SourceQueueCap bounds the per-input injection queue; injections
	// arriving at a full queue are counted and discarded, which caps
	// offered load at the port's acceptance rate past saturation.
	SourceQueueCap int
	// Warmup and Measure are the lengths, in cycles, of the warmup and
	// measurement windows.
	Warmup, Measure int64
	// Seed drives all stochastic choices.
	Seed uint64
	// Ctx, when non-nil, makes the run cancellable: the main loop polls
	// Ctx every ctxCheckInterval simulated cycles and Run returns the
	// ctx error instead of a Result. The poll sits outside the per-port
	// hot loops, so a nil Ctx (the default) costs one comparison per
	// cycle and the simulated behaviour is byte-identical either way.
	Ctx context.Context
	// Obs, when non-nil, attaches observability sinks (internal/obs):
	// the trace recorder sees every flit lifecycle event, the metrics
	// registry accumulates sim.* counters and the latency histogram, and
	// the fairness audit is handed to the switch if it implements
	// SetObserver. Unlike Result, which covers only the measurement
	// window, obs sinks cover the entire run including warmup — they
	// observe the simulation, not the experiment. A nil Obs (the
	// default) is free: no hook allocates or branches beyond a nil
	// check. Results and stdout are byte-identical either way.
	Obs *obs.Observer
	// Faults, when non-nil and non-empty, attaches the fault plane
	// (internal/fault): fail-stop events are applied to the switch
	// cycle by cycle and lossy channel outages drop the flits crossing
	// them, recovered by the source-side retransmission protocol. A nil
	// or empty plan costs nothing: the run is byte-identical to one
	// without the field. Plans are immutable and may be shared across
	// concurrent runs.
	Faults *fault.Plan
	// RetryBudget caps source-side retransmissions per packet after
	// lossy-link corruption. 0 selects the default (3); negative
	// disables retransmission (a corrupted packet is abandoned at its
	// first failed delivery).
	RetryBudget int
	// DeadFlowCycles is the age after which a queued packet whose every
	// path to its destination is failed (Switch.PathBlocked) is retired
	// as a dead flow instead of head-of-line blocking its VC forever.
	// 0 selects the default (512). The age guard keeps flows alive
	// across transient outages that heal.
	DeadFlowCycles int64
	// Check enables the self-checking invariant layer: no grant ever
	// lands on a failed resource, no packet is delivered twice, and at
	// end of run every injected packet is accounted for (delivered,
	// still queued or in flight, retry-exhausted, or a dead flow). Run
	// returns an error on the first violation. It observes the run
	// without changing it; tests keep it always on.
	Check bool
	// ConvergeStop lets the run end before Warmup+Measure: once the
	// telemetry sampler's MSER steady-state detector declares the
	// delivered-packet series converged — checked at window closes,
	// after at least Warmup + Measure/8 cycles and convergeMinWindows
	// closed windows — the run stops at that window boundary and all
	// rates are normalized by the cycles actually measured. The
	// decision depends only on this run's own series, so sweeps remain
	// deterministic at any worker count (though early-stopped results
	// differ from full-length ones — the flag is part of experiment
	// cache keys). When no sampler is attached via Obs, a private one
	// with default cadence is created.
	ConvergeStop bool
}

// Defaults fills unset fields with the paper's parameters. Zero means
// "unset" for every field, so explicit zeroes are indistinguishable from
// defaults: in particular Seed 0 is silently remapped to 1 (seeds 0 and
// 1 therefore run the exact same streams), and Warmup 0 becomes the
// default 10000-cycle window. Callers that need a different fidelity
// must pass nonzero values.
func (c *Config) Defaults() {
	if c.PacketFlits == 0 {
		c.PacketFlits = 4
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.SourceQueueCap == 0 {
		c.SourceQueueCap = 64
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

func (c *Config) validate() error {
	switch {
	case c.Switch == nil:
		return fmt.Errorf("sim: no switch")
	case c.Traffic == nil:
		return fmt.Errorf("sim: no traffic")
	case c.Load < 0:
		return fmt.Errorf("sim: negative load %v", c.Load)
	case c.PacketFlits < 1 || c.VCs < 1 || c.SourceQueueCap < 1:
		return fmt.Errorf("sim: non-positive structural parameter")
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("sim: bad windows warmup=%d measure=%d", c.Warmup, c.Measure)
	case c.PacketFlits > MaxPacketFlits:
		return fmt.Errorf("sim: %d flits per packet, at most MaxPacketFlits %d", c.PacketFlits, MaxPacketFlits)
	case c.VCs > 64:
		return fmt.Errorf("sim: %d VCs per input, at most 64 (one bit each in the VC occupancy mask)", c.VCs)
	}
	return nil
}

// Result aggregates one run's measurements. All rates are per switch
// cycle; all latencies are in cycles.
type Result struct {
	// OfferedLoad echoes the configured load.
	OfferedLoad float64
	// AcceptedFlits is the aggregate delivered flit rate (flits/cycle).
	AcceptedFlits float64
	// AcceptedPackets is the aggregate delivered packet rate.
	AcceptedPackets float64
	// AvgLatency is the mean packet latency, injection to last flit.
	AvgLatency float64
	// P50Latency and P99Latency are latency quantiles.
	P50Latency, P99Latency float64
	// PerInputLatency is the mean latency per source input (NaN-free:
	// inputs that delivered nothing report 0).
	PerInputLatency []float64
	// PerInputPackets is the delivered packet rate per source input.
	PerInputPackets []float64
	// Injected and Delivered count packets during measurement.
	Injected, Delivered int64
	// DroppedInjections counts packets discarded at full source queues
	// during measurement; nonzero means the port is saturated.
	DroppedInjections int64
	// Fault aggregates the fault plane's activity over the whole run;
	// nil when the run had no fault plane, so fault-free results
	// serialize exactly as before.
	Fault *FaultStats `json:",omitempty"`
	// Converged reports the MSER steady-state detector's verdict on
	// the delivered-packet series. Only set when a telemetry sampler
	// was attached (Config.Obs.Tele or ConvergeStop), and omitted from
	// JSON otherwise, so telemetry-free results serialize exactly as
	// before.
	Converged bool `json:",omitempty"`
	// WarmupCycles is the detector's suggested warmup truncation in
	// cycles from run start (the MSER cut × the sampler window); 0
	// when not converged or not sampled.
	WarmupCycles int64 `json:",omitempty"`
}

// Saturated reports whether offered traffic exceeded what the switch
// accepted.
func (r Result) Saturated() bool { return r.DroppedInjections > 0 }

// MaxPacketFlits bounds Config.PacketFlits. A run holds the flits left
// on each port's connection in an int32, so a longer packet would wrap
// and misreport every count and rate.
const MaxPacketFlits = math.MaxInt32

// ctxCheckInterval is how often (in simulated cycles) a cancellable run
// polls its context. Polling a cancel context takes a mutex, so the
// interval trades shutdown latency (≤ interval cycles, microseconds of
// wall time) against hot-loop overhead; 1024 makes the check unmeasurable
// while still stopping a cancelled run long before one sweep point ends.
const ctxCheckInterval = 1024

// teleDeliveredSeries is the telemetry series the MSER steady-state
// detector judges: delivered packets per window, switch-wide.
const teleDeliveredSeries = "sim.packets.delivered"

// convergeMinWindows is the fewest closed telemetry windows a
// ConvergeStop run must accumulate before the detector may end it;
// together with the Warmup + Measure/8 cycle floor it keeps the
// detector from declaring victory on a handful of samples.
const convergeMinWindows = 16

// BatchRun executes one run of base per seed, run k seeded with
// seeds[k] on a fresh switch from newSwitch, and returns their results
// in seed order — each identical to Run(base) with that Switch and
// Seed. base.Switch and base.Seed are ignored. newTraffic, when
// non-nil, supplies each run its own traffic pattern; it must be
// non-nil for stateful patterns (e.g. traffic.Bursty), which cannot be
// shared across runs — the same contract as LoadSweep. When newTraffic
// is nil, every run shares base.Traffic. It is a short loop over Run,
// kept because code outside this module calls it: e2ebench's probes
// (e2ebench/probes.go) time it, besides experiments' replicates.
func BatchRun(base Config, newSwitch func() Switch, newTraffic func() Traffic, seeds []uint64) ([]Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: batch run needs at least one seed")
	}
	out := make([]Result, len(seeds))
	for k, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		cfg.Switch = newSwitch()
		if newTraffic != nil {
			cfg.Traffic = newTraffic()
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: batch replica %d: %w", k, err)
		}
		out[k] = res
	}
	return out, nil
}

// SaturationThroughput runs the switch fully backlogged (load 1.0) and
// returns the accepted flit rate per cycle — the saturation throughput
// the paper's tables report, before conversion to Tbps.
func SaturationThroughput(cfg Config) (float64, error) {
	cfg.Load = 1.0
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.AcceptedFlits, nil
}

// LoadSweep runs the configuration at each load on at most workers
// concurrent simulations (0 selects runtime.GOMAXPROCS(0), 1 forces
// serial) and returns the results in load order. Each point gets a
// fresh switch from newSwitch to avoid state leakage, and derives its
// own PRNG seed from (base.Seed, point index) via pool.SeedFor, so the
// sweep's results are identical at every worker count. newTraffic, when
// non-nil, supplies each point its own traffic pattern; it must be
// non-nil for stateful patterns (e.g. traffic.Bursty), which can be
// shared neither between concurrent points nor across sequential ones.
// The first error by point index wins, mirroring serial execution.
func LoadSweep(base Config, newSwitch func() Switch, newTraffic func() Traffic, loads []float64, workers int) ([]Result, error) {
	return LoadSweepObserved(base, newSwitch, newTraffic, loads, workers, nil)
}

// LoadSweepObserved is LoadSweep with per-point observability: when
// obsFor is non-nil it is called once per point, before the point runs,
// and must return the observer for that point (or nil to leave the
// point unobserved). Each point needs its own observer because points
// run concurrently and obs sinks are single-writer; callers merge the
// per-point sinks in point order afterwards (obs.WriteJSONL and friends
// take the slice), which keeps every serialized trace byte-identical at
// any worker count. obsFor itself may be called from worker goroutines
// and must be safe for concurrent use; returning independent,
// preallocated observers from a slice is the intended pattern.
// A non-nil base.Ctx makes the sweep cancellable: pending points are
// skipped and in-flight points abort at their next cycle-level check, so
// the whole sweep unwinds within roughly one check interval. The ctx
// error is returned and any partial results are discarded.
func LoadSweepObserved(base Config, newSwitch func() Switch, newTraffic func() Traffic, loads []float64, workers int, obsFor func(i int) *obs.Observer) ([]Result, error) {
	out := make([]Result, len(loads))
	errs := make([]error, len(loads))
	pool.DoCtx(base.Ctx, len(loads), workers, func(i int) {
		cfg := base
		cfg.Switch = newSwitch()
		if newTraffic != nil {
			cfg.Traffic = newTraffic()
		}
		if obsFor != nil {
			cfg.Obs = obsFor(i)
		}
		cfg.Load = loads[i]
		cfg.Seed = pool.SeedFor(base.Seed, uint64(i))
		out[i], errs[i] = Run(cfg)
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
