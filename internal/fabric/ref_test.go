package fabric

import (
	"fmt"

	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
)

// refNetwork is the fabric cycle loop as it stood before route tables,
// route memos, credit mirrors and every later fast path: each cycle it
// recomputes every head packet's route through the Topology's methods
// and reads downstream buffer state directly to find a credit. It is
// kept as the byte-for-byte oracle of Run (TestFabricMatchesReference,
// FuzzFabricMatchesReference), like sim's refRun.
//
// Only two deliberate changes since then are carried forward: the
// latency histogram is obs.Histogram at the full 4096 bins (mean =
// sum/count), and a packet's class and phase updates are those of the
// topologies as they are now. The observability, telemetry, checker
// and cancellation hooks are left out; none of them changes a Result
// (TestObsDoesNotPerturb).
type refNetwork struct {
	cfg   Config
	topo  Topology
	conc  int
	radix int
	vcs   int
	nodes []refRouter
	src   []source
	// VC bands: class c owns VCs [bandLo[c], bandHi[c]).
	bandLo, bandHi []int

	cand []int // route-candidate scratch
	rel  []int // pending releases, encoded node*radix+port

	hist *obs.Histogram
	hops stats.Summary

	deadTotal    int64
	inNet        int64
	lastActivity int64
}

// refRouter is one switch plus its input buffering and connection state.
type refRouter struct {
	sw   sim.Switch
	vcq  []fifo  // input buffers, indexed port*VCs+vc
	resv []uint8 // credits reserved by in-flight link transfers, same index
	req  []int   // per input port: requested output this cycle
	rr   []int   // per input port: round-robin VC pointer
	// Active connections, per input port.
	active    []bool
	connVC    []int
	connOut   []int
	downVC    []int
	downClass []uint8
	remaining []int
}

func (q *fifo) peek() *packet { return &q.buf[q.head] }

// refRun runs cfg on the reference loop.
func refRun(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	t := cfg.Topo
	n := &refNetwork{
		cfg:   cfg,
		topo:  t,
		conc:  t.Concentration(),
		radix: t.Radix(),
		vcs:   cfg.VCs,
		nodes: make([]refRouter, t.Nodes()),
		src:   make([]source, t.Nodes()*t.Concentration()),
		cand:  make([]int, 0, 8),
		hist:  obs.NewHistogram(4, 4096),
	}
	classes := t.Classes(cfg.Routing)
	n.bandLo = make([]int, classes)
	n.bandHi = make([]int, classes)
	for c := 0; c < classes; c++ {
		n.bandLo[c] = c * cfg.VCs / classes
		n.bandHi[c] = (c + 1) * cfg.VCs / classes
	}
	rv := n.radix * cfg.VCs
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.sw = cfg.NewSwitch()
		nd.vcq = make([]fifo, rv)
		for j := range nd.vcq {
			nd.vcq[j].buf = make([]packet, cfg.VCBufPkts)
		}
		nd.resv = make([]uint8, rv)
		nd.downClass = make([]uint8, n.radix)
		nd.active = make([]bool, n.radix)
		nd.req = make([]int, n.radix)
		nd.rr = make([]int, n.radix)
		nd.connVC = make([]int, n.radix)
		nd.connOut = make([]int, n.radix)
		nd.downVC = make([]int, n.radix)
		nd.remaining = make([]int, n.radix)
	}
	root := prng.New(cfg.Seed)
	for i := range n.src {
		root.SplitTo(&n.src[i].rng)
		n.src[i].q.buf = make([]packet, cfg.SourceQueueCap)
	}
	return n.run()
}

// route computes the request for a head packet at router ni: the output
// port and, for link hops, the downstream VC and post-hop class. ok is
// false when every candidate lane lacks credit this cycle (the packet
// holds); retire is true when the static fail-set severed every route
// (the packet can never be delivered).
func (n *refNetwork) route(ni int, pkt *packet) (out, downVC int, downClass uint8, ok, retire bool) {
	destNode := int(pkt.dest) / n.conc
	if ni == destNode {
		return int(pkt.dest) % n.conc, -1, pkt.class, true, false
	}
	fs := n.cfg.Faults
	if fs != nil && fs.RouterFailed(destNode) {
		return 0, 0, 0, false, true
	}
	if pkt.phase == 0 {
		n.cand = n.topo.ViaCandidates(n.cand[:0], ni, int(pkt.via))
	} else {
		n.cand = n.topo.RouteCandidates(n.cand[:0], ni, destNode)
	}
	// Reroute around failures: drop dead lanes, keeping the surviving
	// lanes of the bundle.
	live := n.cand
	if fs != nil {
		live = live[:0]
		for _, o := range n.cand {
			if fs.LinkFailed(ni, o) {
				continue
			}
			if nb, _ := n.topo.LinkDest(ni, o); fs.RouterFailed(nb) {
				continue
			}
			live = append(live, o)
		}
		if len(live) == 0 {
			return 0, 0, 0, false, true
		}
	}
	// Seed-derived lane tie-break, then the first credited lane in
	// rotation.
	start := (int(pkt.flow) + int(pkt.hops)) % len(live)
	for k := 0; k < len(live); k++ {
		o := live[(start+k)%len(live)]
		nb, inPort := n.topo.LinkDest(ni, o)
		ca := n.topo.ClassAfter(int(pkt.class), ni, o)
		if pkt.phase == 1 && pkt.via >= 0 && n.topo.AtVia(ni, int(pkt.via)) {
			// Dateline: the class bump happens on departure from the
			// waypoint.
			ca += n.topo.ViaBump()
		}
		down := &n.nodes[nb]
		base := inPort * n.vcs
		for v := n.bandLo[ca]; v < n.bandHi[ca]; v++ {
			if down.vcq[base+v].n+int(down.resv[base+v]) < n.cfg.VCBufPkts {
				return o, v, uint8(ca), true, false
			}
		}
	}
	return 0, 0, 0, false, false
}

func (n *refNetwork) run() (Result, error) {
	cfg := n.cfg
	var injected, delivered, dropped, flits int64
	total := cfg.Warmup + cfg.Measure
	for cycle := int64(0); cycle < total; cycle++ {
		measuring := cycle >= cfg.Warmup

		// 1. Advance active transmissions; completions deliver locally
		// or arrive on the linked neighbour input.
		n.rel = n.rel[:0]
		for ni := range n.nodes {
			nd := &n.nodes[ni]
			for in := range nd.active {
				if !nd.active[in] {
					continue
				}
				nd.remaining[in]--
				if nd.remaining[in] > 0 {
					continue
				}
				nd.active[in] = false
				n.rel = append(n.rel, ni*n.radix+in)
				pkt := nd.vcq[in*n.vcs+nd.connVC[in]].pop()
				n.inNet--
				pkt.hops++
				out := nd.connOut[in]
				if out < n.conc {
					if measuring {
						n.hist.Observe(float64(cycle - pkt.birth))
						n.hops.Add(float64(pkt.hops))
						delivered++
						flits += int64(cfg.PacketFlits)
					}
					n.lastActivity = cycle
					continue
				}
				nb, inPort := n.topo.LinkDest(ni, out)
				pkt.class = nd.downClass[in]
				if pkt.phase == 0 && n.topo.AtVia(nb, int(pkt.via)) {
					pkt.phase = 1
				}
				down := &n.nodes[nb]
				slot := inPort*n.vcs + nd.downVC[in]
				down.vcq[slot].push(pkt)
				down.resv[slot]--
				n.inNet++
			}
		}

		// 2. Build requests from unconnected inputs with waiting
		// packets, selecting the candidate VC round-robin; statically
		// unroutable heads are retired as dead flows.
		for ni := range n.nodes {
			if cfg.Faults != nil && cfg.Faults.RouterFailed(ni) {
				continue
			}
			nd := &n.nodes[ni]
			for in := range nd.req {
				nd.req[in] = -1
				if nd.active[in] {
					continue
				}
				for k := 0; k < n.vcs; k++ {
					v := (nd.rr[in] + k) % n.vcs
					q := &nd.vcq[in*n.vcs+v]
					if q.n == 0 {
						continue
					}
					out, dvc, dclass, ok, retire := n.route(ni, q.peek())
					if retire {
						q.pop()
						n.inNet--
						n.deadTotal++
						n.lastActivity = cycle
						continue
					}
					if !ok {
						continue
					}
					nd.rr[in] = (v + 1) % n.vcs
					nd.req[in] = out
					nd.connVC[in] = v
					nd.connOut[in] = out
					nd.downVC[in] = dvc
					nd.downClass[in] = dclass
					break
				}
			}

			// 3. Arbitrate and start new connections; link grants
			// reserve the downstream credit for the whole flight.
			for _, g := range nd.sw.Arbitrate(nd.req) {
				nd.active[g.In] = true
				nd.remaining[g.In] = cfg.PacketFlits
				if g.Out >= n.conc {
					nb, inPort := n.topo.LinkDest(ni, g.Out)
					n.nodes[nb].resv[inPort*n.vcs+nd.downVC[g.In]]++
				}
				n.lastActivity = cycle
			}
		}

		// 4. Release the connections that finished this cycle.
		for _, id := range n.rel {
			n.nodes[id/n.radix].sw.Release(id % n.radix)
		}

		// 5. Inject new packets and refill the class-0 VC band from the
		// source queues.
		for core := range n.src {
			if cfg.Faults != nil && cfg.Faults.RouterFailed(core/n.conc) {
				continue
			}
			s := &n.src[core]
			if dest, okInj := cfg.Traffic.Next(core, cycle, cfg.Load, &s.rng); okInj {
				if s.q.full() {
					if measuring {
						dropped++
					}
				} else {
					pkt := packet{
						birth: cycle,
						dest:  int32(dest),
						via:   -1,
						phase: 1,
						flow:  uint32(pool.SeedFor(cfg.Seed, uint64(core), uint64(s.next))),
					}
					if cfg.Routing == Valiant {
						if via := n.topo.ValiantVia(core/n.conc, dest/n.conc, &s.rng); via >= 0 {
							pkt.via = int32(via)
							pkt.phase = 0
						}
					}
					s.q.push(pkt)
					s.next++
					if measuring {
						injected++
					}
				}
			}
			if s.q.n > 0 {
				nd := &n.nodes[core/n.conc]
				base := (core % n.conc) * n.vcs
				for v := n.bandLo[0]; v < n.bandHi[0] && s.q.n > 0; v++ {
					if nd.vcq[base+v].full() {
						continue
					}
					nd.vcq[base+v].push(s.q.pop())
					n.inNet++
				}
			}
		}

		// 6. Deadlock watchdog.
		if n.inNet > 0 && cycle-n.lastActivity > watchdogCycles {
			return Result{}, fmt.Errorf(
				"fabric: deadlock at cycle %d: %d packets buffered, no progress for %d cycles",
				cycle, n.inNet, watchdogCycles)
		}
	}

	measured := float64(cfg.Measure)
	return Result{
		OfferedLoad:       cfg.Load,
		AcceptedFlits:     float64(flits) / measured,
		AcceptedPackets:   float64(delivered) / measured,
		AvgLatency:        n.hist.Mean(),
		P50Latency:        n.hist.Quantile(0.5),
		P99Latency:        n.hist.Quantile(0.99),
		AvgHops:           n.hops.Mean(),
		Injected:          injected,
		Delivered:         delivered,
		DroppedInjections: dropped,
		DeadFlows:         n.deadTotal,
	}, nil
}
