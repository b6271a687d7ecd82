// The single-switch cycle engine. Every single-switch simulation in the
// repository — Run, BatchRun and every LoadSweep point — executes Run:
// one run of one configuration on one fresh switch.
//
// A run keeps its state in flat slabs, made once at its start: one
// 64-byte line per input port (bport), the VC slots and source-queue
// rings of every port in two packet slabs, and the fused-crossbar
// tables below. Past that setup the cycle loop allocates nothing.
//
// Each cycle runs the phases of the reference loop (refRun, see below)
// in its order:
//
//  0. the fault injector applies this cycle's events;
//  1. active transmissions advance one flit, and finished packets are
//     delivered (or, if a lossy channel corrupted them, retransmitted
//     or abandoned);
//  2. idle inputs pick their next VC round-robin and build requests,
//     retiring dead flows on the way;
//  3. the switch arbitrates and grants start connections;
//  4. the connections that finished in phase 1 release;
//  5. each input draws this cycle's injection and refills free VCs;
//  6. the telemetry window closes when due, and ConvergeStop may end
//     the run there.
//
// Phases 1 and 2 share one pass over the ports: they touch disjoint
// per-port state, and the only cross-port ordering they carry is the
// trace, which is kept by deferring phase 2's dead-flow events to the
// end of the pass. Every hook (obs recorder, counters, histogram and
// SetObserver; the tele sampler, gauges and ConvergeStop; the fault
// injector, lossy links, retries and dead flows; the checker; Ctx) sits
// at the reference loop's position behind a nil check, so a hook-free
// run pays one predictable branch per hook site.
//
// Arbitration has two backends:
//
//   - generic: Switch.Arbitrate and Switch.Release on the config's
//     switch;
//   - fused: when the switch is a stock LRG crossbar
//     (crossbar.Switch.PlainLRG) and the run attaches neither Obs nor
//     Faults — the two hooks that reach into the switch's own arbiters
//     and resources — the engine leaves the switch object untouched and
//     arbitrates in place on a crossbar.LRGKernel: column request
//     bitsets and a min-(stamp, index) scan per requested column. The
//     fabric runs its plain-crossbar routers on the same kernel.
//
// The test-only reference oracle refRun (ref_test.go) is the plain
// phase loop with one struct per port; the differential tests in
// engine_test.go hold the engine byte-identical to it, hooks included.
package sim

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// bport is the engine's per-input state: the reference loop's port
// struct squeezed into one cache line (64 bytes), so each per-cycle
// pass pulls one line per port. The VC occupancy flags are one bitmask
// (candidate selection and refill are a rotate and a trailing-zeros
// scan instead of a bool-slice walk), the VC slots and source queue
// live at fixed offsets in the run's slabs (no slice headers here),
// and the connected flag is folded into remaining: a port is connected
// iff remaining > 0, since a grant always sets remaining to the full
// packet length ≥ 1.
type bport struct {
	rng       prng.Source // 32 bytes
	occ       uint64      // bit v set ⇔ VC v holds a packet
	rr        int32       // round-robin VC pointer
	connVC    int32
	remaining int32 // flits left on the active connection; 0 ⇔ idle
	qhead     int32 // source-queue ring cursor into qSlab
	qn        int32 // source-queue occupancy
	// corrupt marks the active transmission as having lost at least
	// one flit to a lossy channel outage; the source detects it when
	// the last flit completes and retransmits or abandons.
	corrupt bool
}

// bpacket is the engine's in-flight packet in 16 bytes. The checker
// identifies a packet by (input, birth) — an input injects at most one
// packet per cycle — so no sequence number is carried.
type bpacket struct {
	birth   int64
	dest    int32
	retries int32 // retransmissions consumed recovering from lossy links
}

// deadFlow is one dead-flow retirement whose trace event waits for the
// end of phase 2 (see the package comment above).
type deadFlow struct{ in, dest, age int }

// firstVC returns the first occupied VC at or after rr (occ must be
// nonzero): the round-robin VC scan as a rotate and a trailing-zeros
// count.
func firstVC(occ uint64, rr, vcs int32, mask uint64) int32 {
	rot := (occ>>uint(rr) | occ<<uint(vcs-rr)) & mask
	v := rr + int32(bits.TrailingZeros64(rot))
	if v >= vcs {
		v -= vcs
	}
	return v
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	sw := cfg.Switch
	n := sw.Radix()
	hasFaults := !cfg.Faults.Empty()
	xb, isXbar := sw.(*crossbar.Switch)
	fast := isXbar && xb.PlainLRG() && cfg.Obs == nil && !hasFaults
	if cfg.Obs != nil {
		if o, ok := sw.(interface{ SetObserver(*obs.Observer) }); ok {
			o.SetObserver(cfg.Obs)
		}
	}
	// Telemetry plane: windowed time-series tracks over the whole run.
	// The sampler is nil unless attached via Obs (or implied by
	// ConvergeStop). Each event counter is one handle that the sampler
	// (if any) reads as a track; all handles below are nil when neither
	// a registry nor a sampler can hold them, and no-op on nil.
	samp := cfg.Obs.Sampler()
	if samp == nil && cfg.ConvergeStop {
		samp = tele.NewSampler(0, 0)
	}
	rec := cfg.Obs.Rec()
	mInjected := cfg.Obs.TrackedCounter(samp, "sim.packets.injected")
	mDelivered := cfg.Obs.TrackedCounter(samp, teleDeliveredSeries)
	mDropped := cfg.Obs.TrackedCounter(samp, "sim.packets.dropped")
	mFlits := cfg.Obs.TrackedCounter(samp, "sim.flits.delivered")
	mWins := cfg.Obs.TrackedCounter(samp, "sim.arb.wins")
	mLosses := cfg.Obs.TrackedCounter(samp, "sim.arb.losses")
	mLatency := cfg.Obs.Histogram("sim.latency.cycles", 4, obs.MaxLatencyBins)
	cfg.Obs.Gauge("sim.offered.load").Set(cfg.Load)
	// obsOn gates the per-event hooks, so a hook-free run tests one
	// flag per event instead of one nil check per handle.
	obsOn := cfg.Obs != nil || samp != nil

	// Fault plane. Everything below is nil/false when the plan is empty,
	// so the fault-free run registers no fault counters and keeps its
	// metrics output unchanged.
	var inj *fault.Injector
	var holder channelHolder
	var blocker pathBlocker
	var mFlitDrop, mRetrans, mRetryDrop, mDeadFlow, mFailEv, mRepairEv *obs.Counter
	if hasFaults {
		inj = fault.NewInjector(cfg.Faults, sw)
		holder, _ = sw.(channelHolder)
		blocker, _ = sw.(pathBlocker)
		mFlitDrop = cfg.Obs.TrackedCounter(samp, "sim.fault.flits_dropped")
		mRetrans = cfg.Obs.TrackedCounter(samp, "sim.fault.retransmissions")
		mRetryDrop = cfg.Obs.TrackedCounter(samp, "sim.fault.retry_exhausted")
		mDeadFlow = cfg.Obs.TrackedCounter(samp, "sim.fault.dead_flows")
		mFailEv = cfg.Obs.TrackedCounter(samp, "sim.fault.fail_events")
		mRepairEv = cfg.Obs.TrackedCounter(samp, "sim.fault.repair_events")
		inj.Hook = func(cycle int64, f fault.Fault, repair bool) {
			if repair {
				mRepairEv.Inc()
				rec.Record(cycle, obs.EvRepair, f.ID, -1, int(f.Kind))
				return
			}
			mFailEv.Inc()
			rec.Record(cycle, obs.EvFault, f.ID, -1, int(f.Kind))
		}
	}
	lossy := inj != nil && inj.HasLossy() && holder != nil
	deadOn := blocker != nil
	retryBudget := cfg.RetryBudget
	switch {
	case retryBudget == 0:
		retryBudget = 3
	case retryBudget < 0:
		retryBudget = 0
	}
	deadAfter := cfg.DeadFlowCycles
	if deadAfter == 0 {
		deadAfter = 512
	}
	var chk *checker
	if cfg.Check {
		chk = newChecker(sw, n)
	}
	var fstats FaultStats

	total := cfg.Warmup + cfg.Measure
	vcsN := cfg.VCs
	qcap := cfg.SourceQueueCap
	ports := make([]bport, n)
	vcSlab := make([]bpacket, n*vcsN) // VC slots: [in*vcs + v]
	qSlab := make([]bpacket, n*qcap)  // source-queue rings: [in*qcap + i]
	req := make([]int, n)             // requested output per input, or -1 (Switch.Arbitrate's argument)
	relIn := make([]int32, n)         // inputs whose connection finished this cycle
	hist := obs.NewHistogram(4, obs.RunHistogramBins(total-1))
	perLat := stats.NewPerPort(n)
	perPkt := make([]int64, n)
	var deadBuf []deadFlow // phase 2's deferred dead-flow trace events
	if deadOn && rec != nil {
		deadBuf = make([]deadFlow, 0, n*vcsN)
	}
	var root prng.Source
	root.Reseed(cfg.Seed)
	for in := range ports {
		root.SplitTo(&ports[in].rng)
	}

	// Fused crossbar: the stock LRG crossbar arbitrated in place, with
	// the switch object left untouched.
	var xk *crossbar.LRGKernel
	var xgrants []topo.Grant
	if fast {
		xk = &crossbar.NewLRGKernels(1, n)[0]
		xgrants = make([]topo.Grant, 0, n)
	}

	if samp != nil {
		// Level tracks, snapshotted at each window close: total packets
		// waiting in source queues + VCs, and flits still crossing the
		// switch on active connections.
		samp.GaugeFunc("sim.queue.occupancy", func() float64 {
			var occ int
			for in := range ports {
				occ += int(ports[in].qn) + bits.OnesCount64(ports[in].occ)
			}
			return float64(occ)
		})
		samp.GaugeFunc("sim.flits.inflight", func() float64 {
			var fl int
			for in := range ports {
				fl += int(ports[in].remaining)
			}
			return float64(fl)
		})
	}

	// Devirtualize uniform traffic: one compiled draw (exactly
	// Uniform.Next's values and PRNG stream) instead of an interface call
	// per port per cycle.
	tr := cfg.Traffic
	uni, uniOK := tr.(traffic.Uniform)
	uniDraw := traffic.NewUniformDraw(uni, cfg.Load)

	F := int32(cfg.PacketFlits)
	F64 := int64(cfg.PacketFlits)
	vcs := int32(vcsN)
	vcMask := uint64(1)<<uint(vcs) - 1 // all ones at 64 VCs
	qc := int32(qcap)
	load := cfg.Load

	var injected, delivered, dropped, flits int64

	var stoppedAt int64 // cycle count at a ConvergeStop early exit, 0 = ran full length
	for cycle := int64(0); cycle < total; cycle++ {
		if cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, cfg.Ctx.Err())
		}
		measuring := cycle >= cfg.Warmup

		// 0. Apply this cycle's fault events before anything arbitrates:
		// a resource failed at cycle t is masked from cycle t's grants,
		// and a lossy outage spanning [onset, repair) corrupts cycle t's
		// flits.
		if inj != nil {
			inj.Advance(cycle)
		}

		// 1+2. Advance transmissions, then build this port's request.
		// Deliveries complete here but resources release only after this
		// cycle's arbitration, matching the priority-bus reuse
		// (arbitration cannot overlap data on the same output).
		relN := 0
		dead := deadBuf[:0]
		for in := 0; in < n; in++ {
			p := &ports[in]
			piV := in * vcsN
			if p.remaining > 0 {
				if lossy {
					// A flit crossing an L2LC inside a lossy outage is
					// lost; the connection keeps transmitting (the source
					// has not noticed yet), but the packet is now corrupt.
					if cid := holder.HeldChannel(in); cid >= 0 && inj.Lossy(cid) {
						p.corrupt = true
						fstats.FlitsDropped++
						mFlitDrop.Inc()
						rec.Record(cycle, obs.EvFlitDrop, in, int(vcSlab[piV+int(p.connVC)].dest), cid)
					}
				}
				if p.remaining--; p.remaining > 0 {
					req[in] = -1
					continue
				}
				relIn[relN] = int32(in)
				relN++
				pk := &vcSlab[piV+int(p.connVC)]
				if p.corrupt {
					// Last flit of a corrupted packet: the destination
					// cannot reassemble it, the source detects the loss
					// one packet-time after transmission started (its
					// implicit timeout) and either retransmits from the
					// still-occupied VC or abandons the packet.
					p.corrupt = false
					if int(pk.retries) >= retryBudget {
						p.occ &^= 1 << uint(p.connVC)
						fstats.RetryExhausted++
						mRetryDrop.Inc()
						rec.Record(cycle, obs.EvRetryDrop, in, int(pk.dest), int(pk.retries))
					} else {
						pk.retries++
						fstats.Retransmissions++
						mRetrans.Inc()
						rec.Record(cycle, obs.EvRetransmit, in, int(pk.dest), int(pk.retries))
					}
				} else {
					age := cycle - pk.birth
					if measuring {
						hist.Observe(float64(age))
						perLat.Add(in, float64(age))
						perPkt[in]++
						delivered++
						flits += F64
					}
					if obsOn {
						mDelivered.Inc()
						mFlits.Add(F64)
						mLatency.Observe(float64(age))
						rec.Record(cycle, obs.EvEject, in, int(pk.dest), int(age))
					}
					if chk != nil {
						if err := chk.recordDelivery(cycle, in, pk.birth); err != nil {
							return Result{}, err
						}
					}
					p.occ &^= 1 << uint(p.connVC)
				}
				// No continue: a port that just finished still builds a
				// request (advancing its VC round-robin) even though it
				// cannot win this cycle — its output releases only after
				// arbitration.
			}
			if p.occ == 0 {
				req[in] = -1
				continue
			}
			v := firstVC(p.occ, p.rr, vcs, vcMask)
			if deadOn {
				// Dead flows: a packet that has waited past the dead-flow
				// age while every path to its destination is failed can
				// never be delivered. Retire it instead of head-of-line
				// blocking the VC forever, and look further.
				for {
					pk := &vcSlab[piV+int(v)]
					age := cycle - pk.birth
					if age < deadAfter || !blocker.PathBlocked(in, int(pk.dest)) {
						break
					}
					p.occ &^= 1 << uint(v)
					fstats.DeadFlows++
					mDeadFlow.Inc()
					if rec != nil {
						dead = append(dead, deadFlow{in, int(pk.dest), int(age)})
					}
					if p.occ == 0 {
						break
					}
					v = firstVC(p.occ, p.rr, vcs, vcMask)
				}
				if p.occ == 0 {
					req[in] = -1
					continue
				}
			}
			if p.rr = v + 1; p.rr == vcs {
				p.rr = 0
			}
			p.connVC = v
			dest := int(vcSlab[piV+int(v)].dest)
			req[in] = dest
			if fast {
				// The kernel applies the crossbar's participation rule: an
				// input whose delivery finished this cycle still holds its
				// output until phase 4, and busy outputs do not take part.
				xk.Request(in, dest)
			}
		}
		for _, d := range dead {
			rec.Record(cycle, obs.EvDeadFlow, d.in, d.dest, d.age)
		}

		// 3. Arbitrate and start new connections (flits flow on the
		// following cycles).
		if fast {
			// A fused run has no Obs, so the only possible sampler is
			// ConvergeStop's private one, which reads just the delivered
			// series: wins and losses go uncounted.
			xgrants = xk.Arbitrate(xgrants[:0])
			for _, g := range xgrants {
				if chk != nil {
					if err := chk.checkGrant(cycle, g.In, g.Out); err != nil {
						return Result{}, err
					}
				}
				ports[g.In].remaining = F
			}
		} else {
			for _, g := range sw.Arbitrate(req) {
				if chk != nil {
					if err := chk.checkGrant(cycle, g.In, g.Out); err != nil {
						return Result{}, err
					}
				}
				ports[g.In].remaining = F
				if obsOn {
					mWins.Inc()
					rec.Record(cycle, obs.EvArbWin, g.In, g.Out, cfg.PacketFlits)
				}
			}
			if obsOn {
				// A requesting input left unconnected lost its
				// arbitration round (to a contender, a busy output, or a
				// busy channel).
				for in, out := range req {
					if out >= 0 && ports[in].remaining == 0 {
						mLosses.Inc()
						rec.Record(cycle, obs.EvArbLose, in, out, 0)
					}
				}
			}
		}

		// 4. Release the connections that finished this cycle.
		for _, in := range relIn[:relN] {
			if fast {
				xk.Release(int(in))
			} else {
				sw.Release(int(in))
			}
		}

		// 5. Inject new packets and refill VCs from the source queue.
		// Every port draws every cycle, full source queue or not, which
		// keeps each port's PRNG stream independent of the others.
		for in := 0; in < n; in++ {
			p := &ports[in]
			var dest int
			var inject bool
			if uniOK {
				dest, inject = uniDraw.Next(&p.rng)
			} else {
				dest, inject = tr.Next(in, cycle, load, &p.rng)
			}
			piQ := in * qcap
			if inject {
				if p.qn == qc {
					if measuring {
						dropped++
					}
					if obsOn {
						mDropped.Inc()
						rec.Record(cycle, obs.EvDrop, in, dest, 0)
					}
				} else {
					i := p.qhead + p.qn
					if i >= qc {
						i -= qc
					}
					qSlab[piQ+int(i)] = bpacket{birth: cycle, dest: int32(dest)}
					p.qn++
					if measuring {
						injected++
					}
					if chk != nil {
						chk.injected++
					}
					if obsOn {
						mInjected.Inc()
						rec.Record(cycle, obs.EvInject, in, dest, 0)
					}
				}
			}
			// Ascending free VCs, one packet each.
			for free := ^p.occ & vcMask; free != 0 && p.qn > 0; free &= free - 1 {
				v := bits.TrailingZeros64(free)
				pk := qSlab[piQ+int(p.qhead)]
				vcSlab[in*vcsN+v] = pk
				if p.qhead++; p.qhead == qc {
					p.qhead = 0
				}
				p.qn--
				p.occ |= 1 << uint(v)
				if rec != nil {
					rec.Record(cycle, obs.EvVCAlloc, in, int(pk.dest), v)
				}
			}
		}

		// 6. Close the telemetry window when its cadence is due (a
		// single compare when telemetry is off or mid-window) and, under
		// ConvergeStop, consult the steady-state detector at each close.
		if samp.Tick(cycle+1) && cfg.ConvergeStop &&
			cycle+1 >= cfg.Warmup+(cfg.Measure+7)/8 &&
			samp.Windows() >= convergeMinWindows {
			if _, ok := tele.MSER(samp.Values(teleDeliveredSeries)); ok {
				stoppedAt = cycle + 1
				break
			}
		}
	}

	// An early-stopped run measured fewer cycles than configured; rates
	// normalize by what actually ran so they stay comparable.
	measured := float64(cfg.Measure)
	if stoppedAt > 0 {
		measured = float64(stoppedAt - cfg.Warmup)
	}
	lat := perLat.Means()
	pkt := make([]float64, n)
	for i, c := range perPkt {
		pkt[i] = float64(c) / measured
	}
	res := Result{
		OfferedLoad:       cfg.Load,
		AcceptedFlits:     float64(flits) / measured,
		AcceptedPackets:   float64(delivered) / measured,
		AvgLatency:        hist.Mean(),
		P50Latency:        hist.Quantile(0.5),
		P99Latency:        hist.Quantile(0.99),
		PerInputLatency:   lat,
		PerInputPackets:   pkt,
		Injected:          injected,
		Delivered:         delivered,
		DroppedInjections: dropped,
	}
	if samp != nil {
		cut, conv := tele.MSER(samp.Values(teleDeliveredSeries))
		res.Converged = conv
		if conv {
			res.WarmupCycles = int64(cut) * samp.Window()
		}
	}
	if hasFaults {
		ist := inj.Stats()
		fstats.FailEvents = ist.FailEvents
		fstats.RepairEvents = ist.RepairEvents
		fstats.SkippedEvents = ist.Skipped
		res.Fault = new(FaultStats)
		*res.Fault = fstats
	}
	if chk != nil {
		var inFlight int64
		for in := range ports {
			inFlight += int64(ports[in].qn) + int64(bits.OnesCount64(ports[in].occ))
		}
		if err := chk.conservation(inFlight, fstats); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}
