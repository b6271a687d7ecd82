package sim

import (
	"fmt"

	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/tele"
)

// refRun is the reference oracle for the engine: the straightforward
// phase-by-phase cycle loop, one port struct per input, a ring-buffer
// source queue, and every hook inline. It is deliberately independent
// of the engine's packed state (bit-mask VC occupancy, arena slabs,
// fused crossbar arbitration, end-of-cycle hook deferral), so the
// differential tests in engine_test.go compare two implementations of
// the same timing model, not one implementation with itself.

type packet struct {
	birth int64
	dest  int
	seq   int64 // per-input injection sequence number (invariant checker)
	// retries counts the retransmissions this packet has consumed
	// recovering from lossy-link corruption.
	retries int
}

// fifo is a fixed-capacity ring buffer of packets. The source queue
// needs bounded FIFO semantics only; a ring keeps the whole run on one
// allocation, where a rolling slice (q = q[1:] plus append) re-allocates
// every time the live window drifts off the end of its backing array.
type fifo struct {
	buf  []packet
	head int
	n    int
}

func (q *fifo) full() bool { return q.n == len(q.buf) }

func (q *fifo) push(p packet) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *fifo) pop() packet {
	p := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

type port struct {
	rng  *prng.Source
	srcQ fifo     // FIFO, bounded by SourceQueueCap
	vc   []packet // one packet per occupied VC
	vcOk []bool
	rr   int // round-robin VC pointer
	// Active connection, if any.
	connected bool
	connVC    int
	remaining int
	// corrupt marks the active transmission as having lost at least one
	// flit to a lossy channel outage; the source detects it when the
	// last flit completes and retransmits or abandons.
	corrupt bool
	// nextSeq numbers this input's injections.
	nextSeq int64
}

// refRun executes one simulation and returns its measurements.
func refRun(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Switch.Radix()
	if cfg.Obs != nil {
		if sw, ok := cfg.Switch.(interface{ SetObserver(*obs.Observer) }); ok {
			sw.SetObserver(cfg.Obs)
		}
	}
	// All handles below are nil when cfg.Obs is nil (or lacks the sink);
	// their methods no-op on nil receivers, so the disabled path costs
	// one nil check per hook and never allocates.
	rec := cfg.Obs.Rec()
	mInjected := cfg.Obs.Counter("sim.packets.injected")
	mDelivered := cfg.Obs.Counter("sim.packets.delivered")
	mDropped := cfg.Obs.Counter("sim.packets.dropped")
	mFlits := cfg.Obs.Counter("sim.flits.delivered")
	mWins := cfg.Obs.Counter("sim.arb.wins")
	mLosses := cfg.Obs.Counter("sim.arb.losses")
	mLatency := cfg.Obs.Histogram("sim.latency.cycles", 4, 4096)
	cfg.Obs.Gauge("sim.offered.load").Set(cfg.Load)

	// Telemetry plane: windowed time-series tracks over the whole run.
	// The sampler is nil unless attached via Obs (or implied by
	// ConvergeStop). Unlike Run, the oracle counts each track's events
	// in counts of its own, apart from the obs counters above, so the
	// differential tests check Run's one-counter wiring against counts
	// made a different way.
	samp := cfg.Obs.Sampler()
	if samp == nil && cfg.ConvergeStop {
		samp = tele.NewSampler(0, 0)
	}
	tInjected := refTrack(samp, "sim.packets.injected")
	tDelivered := refTrack(samp, teleDeliveredSeries)
	tDropped := refTrack(samp, "sim.packets.dropped")
	tFlits := refTrack(samp, "sim.flits.delivered")
	tWins := refTrack(samp, "sim.arb.wins")
	tLosses := refTrack(samp, "sim.arb.losses")

	// Fault plane. Everything below is nil/false when the plan is empty,
	// so the fault-free run stays on the exact pre-fault hot path (and
	// registers no fault counters, keeping metrics output unchanged).
	hasFaults := !cfg.Faults.Empty()
	var inj *fault.Injector
	var holder channelHolder
	var blocker pathBlocker
	var mFlitDrop, mRetrans, mRetryDrop, mDeadFlow, mFailEv, mRepairEv *obs.Counter
	var tFlitDrop, tRetrans, tRetryDrop, tDeadFlow, tFailEv, tRepairEv *int64
	if hasFaults {
		inj = fault.NewInjector(cfg.Faults, cfg.Switch)
		holder, _ = cfg.Switch.(channelHolder)
		blocker, _ = cfg.Switch.(pathBlocker)
		mFlitDrop = cfg.Obs.Counter("sim.fault.flits_dropped")
		mRetrans = cfg.Obs.Counter("sim.fault.retransmissions")
		mRetryDrop = cfg.Obs.Counter("sim.fault.retry_exhausted")
		mDeadFlow = cfg.Obs.Counter("sim.fault.dead_flows")
		mFailEv = cfg.Obs.Counter("sim.fault.fail_events")
		mRepairEv = cfg.Obs.Counter("sim.fault.repair_events")
		tFlitDrop = refTrack(samp, "sim.fault.flits_dropped")
		tRetrans = refTrack(samp, "sim.fault.retransmissions")
		tRetryDrop = refTrack(samp, "sim.fault.retry_exhausted")
		tDeadFlow = refTrack(samp, "sim.fault.dead_flows")
		tFailEv = refTrack(samp, "sim.fault.fail_events")
		tRepairEv = refTrack(samp, "sim.fault.repair_events")
		inj.Hook = func(cycle int64, f fault.Fault, repair bool) {
			if repair {
				mRepairEv.Inc()
				*tRepairEv++
				rec.Record(cycle, obs.EvRepair, f.ID, -1, int(f.Kind))
				return
			}
			mFailEv.Inc()
			*tFailEv++
			rec.Record(cycle, obs.EvFault, f.ID, -1, int(f.Kind))
		}
	}
	lossy := inj != nil && inj.HasLossy() && holder != nil
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
		chk = newChecker(cfg.Switch, n)
	}
	var fstats FaultStats

	root := prng.New(cfg.Seed)
	ports := make([]port, n)
	for i := range ports {
		ports[i] = port{
			rng:  root.Split(),
			srcQ: fifo{buf: make([]packet, cfg.SourceQueueCap)},
			vc:   make([]packet, cfg.VCs),
			vcOk: make([]bool, cfg.VCs),
		}
	}

	if samp != nil {
		// Level tracks, snapshotted at each window close: total packets
		// waiting in source queues + VCs, and flits still crossing the
		// switch on active connections.
		samp.GaugeFunc("sim.queue.occupancy", func() float64 {
			var occ int
			for in := range ports {
				occ += ports[in].srcQ.n
				for _, ok := range ports[in].vcOk {
					if ok {
						occ++
					}
				}
			}
			return float64(occ)
		})
		samp.GaugeFunc("sim.flits.inflight", func() float64 {
			var fl int
			for in := range ports {
				if ports[in].connected {
					fl += ports[in].remaining
				}
			}
			return float64(fl)
		})
	}

	req := make([]int, n)
	hist := obs.NewHistogram(4, 4096)
	perLat := stats.NewPerPort(n)
	perPkt := make([]int64, n)
	var injected, delivered, dropped, flits int64
	releases := make([]int, 0, n)

	total := cfg.Warmup + cfg.Measure
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

		// 1. Advance active transmissions; deliveries complete here but
		// resources release only after this cycle's arbitration, matching
		// the priority-bus reuse (arbitration cannot overlap data on the
		// same output).
		releases = releases[:0]
		for in := range ports {
			p := &ports[in]
			if !p.connected {
				continue
			}
			if lossy {
				// A flit crossing an L2LC inside a lossy outage is lost;
				// the connection keeps transmitting (the source has not
				// noticed yet), but the packet is now corrupt.
				if cid := holder.HeldChannel(in); cid >= 0 && inj.Lossy(cid) {
					p.corrupt = true
					fstats.FlitsDropped++
					mFlitDrop.Inc()
					*tFlitDrop++
					rec.Record(cycle, obs.EvFlitDrop, in, p.vc[p.connVC].dest, cid)
				}
			}
			p.remaining--
			if p.remaining > 0 {
				continue
			}
			if p.corrupt {
				// Last flit of a corrupted packet: the destination cannot
				// reassemble it, the source detects the loss one
				// packet-time after transmission started (its implicit
				// timeout) and either retransmits from the still-occupied
				// VC or abandons the packet.
				pkt := &p.vc[p.connVC]
				p.corrupt = false
				p.connected = false
				releases = append(releases, in)
				if pkt.retries >= retryBudget {
					p.vcOk[p.connVC] = false
					fstats.RetryExhausted++
					mRetryDrop.Inc()
					*tRetryDrop++
					rec.Record(cycle, obs.EvRetryDrop, in, pkt.dest, pkt.retries)
				} else {
					pkt.retries++
					fstats.Retransmissions++
					mRetrans.Inc()
					*tRetrans++
					rec.Record(cycle, obs.EvRetransmit, in, pkt.dest, pkt.retries)
				}
				continue
			}
			pkt := p.vc[p.connVC]
			lat := cycle - pkt.birth
			if measuring {
				hist.Observe(float64(lat))
				perLat.Add(in, float64(lat))
				perPkt[in]++
				delivered++
				flits += int64(cfg.PacketFlits)
			}
			mDelivered.Inc()
			mFlits.Add(int64(cfg.PacketFlits))
			*tDelivered++
			*tFlits += int64(cfg.PacketFlits)
			mLatency.Observe(float64(lat))
			rec.Record(cycle, obs.EvEject, in, pkt.dest, int(lat))
			if chk != nil {
				if err := chk.recordDelivery(cycle, in, pkt.seq); err != nil {
					return Result{}, err
				}
			}
			p.vcOk[p.connVC] = false
			p.connected = false
			releases = append(releases, in)
		}

		// 2. Build requests from unconnected inputs with waiting packets,
		// selecting the candidate VC round-robin.
		for in := range ports {
			p := &ports[in]
			req[in] = -1
			if p.connected {
				continue
			}
			for k := 0; k < cfg.VCs; k++ {
				v := (p.rr + k) % cfg.VCs
				if !p.vcOk[v] {
					continue
				}
				if hasFaults && blocker != nil && cycle-p.vc[v].birth >= deadAfter && blocker.PathBlocked(in, p.vc[v].dest) {
					// Dead flow: the packet has waited past the dead-flow
					// age and every path to its destination is failed, so
					// it can never be delivered. Retire it instead of
					// head-of-line blocking the VC forever.
					p.vcOk[v] = false
					fstats.DeadFlows++
					mDeadFlow.Inc()
					*tDeadFlow++
					rec.Record(cycle, obs.EvDeadFlow, in, p.vc[v].dest, int(cycle-p.vc[v].birth))
					continue
				}
				p.rr = (v + 1) % cfg.VCs
				req[in] = p.vc[v].dest
				p.connVC = v
				break
			}
		}

		// 3. Arbitrate and start new connections (flits flow on the
		// following cycles).
		for _, g := range cfg.Switch.Arbitrate(req) {
			if chk != nil {
				if err := chk.checkGrant(cycle, g.In, g.Out); err != nil {
					return Result{}, err
				}
			}
			p := &ports[g.In]
			p.connected = true
			p.remaining = cfg.PacketFlits
			mWins.Inc()
			*tWins++
			rec.Record(cycle, obs.EvArbWin, g.In, g.Out, cfg.PacketFlits)
		}
		if cfg.Obs != nil || samp != nil {
			// A requesting input left unconnected lost its arbitration
			// round (to a contender, a busy output, or a busy channel).
			for in := range ports {
				if req[in] >= 0 && !ports[in].connected {
					mLosses.Inc()
					*tLosses++
					rec.Record(cycle, obs.EvArbLose, in, req[in], 0)
				}
			}
		}

		// 4. Release the connections that finished this cycle.
		for _, in := range releases {
			cfg.Switch.Release(in)
		}

		// 5. Inject new packets and refill VCs from the source queue.
		for in := range ports {
			p := &ports[in]
			if dest, ok := cfg.Traffic.Next(in, cycle, cfg.Load, p.rng); ok {
				if p.srcQ.full() {
					if measuring {
						dropped++
					}
					mDropped.Inc()
					*tDropped++
					rec.Record(cycle, obs.EvDrop, in, dest, 0)
				} else {
					p.srcQ.push(packet{birth: cycle, dest: dest, seq: p.nextSeq})
					p.nextSeq++
					if measuring {
						injected++
					}
					if chk != nil {
						chk.injected++
					}
					mInjected.Inc()
					*tInjected++
					rec.Record(cycle, obs.EvInject, in, dest, 0)
				}
			}
			for v := 0; v < cfg.VCs && p.srcQ.n > 0; v++ {
				if !p.vcOk[v] {
					p.vc[v] = p.srcQ.pop()
					p.vcOk[v] = true
					rec.Record(cycle, obs.EvVCAlloc, in, p.vc[v].dest, v)
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
	res := Result{
		OfferedLoad:       cfg.Load,
		AcceptedFlits:     float64(flits) / measured,
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
	if hasFaults {
		ist := inj.Stats()
		fstats.FailEvents = ist.FailEvents
		fstats.RepairEvents = ist.RepairEvents
		fstats.SkippedEvents = ist.Skipped
		res.Fault = &fstats
	}
	if chk != nil {
		var inFlight int64
		for in := range ports {
			inFlight += int64(ports[in].srcQ.n)
			for _, ok := range ports[in].vcOk {
				if ok {
					inFlight++
				}
			}
		}
		if err := chk.conservation(inFlight, fstats); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// refTrack returns a count of its own for the named event and, when s
// is non-nil, registers it with s as a counter track.
func refTrack(s *tele.Sampler, name string) *int64 {
	c := new(int64)
	s.CounterFunc(name, func() int64 { return *c })
	return c
}
