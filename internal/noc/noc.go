// Package noc composes switches into networks-on-chip: the 2D mesh of
// 3D Hi-Rise switches the paper sketches for kilo-core systems (§VI-E,
// Fig 13), and the flattened butterfly it is compared against. Routing
// between nodes is dimension-ordered over a pluggable Topology; within a
// node, the switch itself provides the "adaptable Z dimension" — any
// local port (core) or incoming link can reach any outgoing link or
// local port in one traversal.
//
// Packets are store-and-forward per hop with the same connection
// discipline as internal/sim (one arbitration cycle plus PacketFlits
// data cycles per traversal) and credit-based link-level flow control
// over bounded input buffers.
package noc

import (
	"context"
	"fmt"

	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
)

// Direction indexes a mesh neighbour.
const (
	east = iota
	west
	north
	south
	numDirs
)

func opposite(dir int) int {
	switch dir {
	case east:
		return west
	case west:
		return east
	case north:
		return south
	default:
		return north
	}
}

// Config describes the network.
type Config struct {
	// Topology wires the nodes. When nil, a Mesh is built from MeshW,
	// MeshH, Concentration, and LinkPorts (the original Fig 13 shape).
	Topology Topology
	// MeshW and MeshH are the mesh dimensions in nodes (used when
	// Topology is nil).
	MeshW, MeshH int
	// Concentration is the number of cores attached to each node (used
	// when Topology is nil).
	Concentration int
	// LinkPorts is the number of switch ports per direction (used when
	// Topology is nil).
	LinkPorts int
	// NewSwitch builds one node's switch; its radix must equal the
	// topology's.
	NewSwitch func() sim.Switch
	// PacketFlits is the packet length (default 4).
	PacketFlits int
	// SourceQueueCap bounds per-core injection queues (default 64).
	SourceQueueCap int
	// InputBufferPkts bounds each switch input port's packet buffer
	// (default 4). Forwarding is credit-based: a node only requests a
	// link when the downstream input buffer has room, so backpressure
	// propagates hop by hop. Dimension-ordered routing keeps the buffer
	// dependency graph acyclic, so bounded buffers cannot deadlock.
	InputBufferPkts int
	// AdaptiveLanes selects the candidate link lane with the most
	// downstream credit instead of hashing the flow onto a fixed lane.
	AdaptiveLanes bool
	// Warmup and Measure are window lengths in cycles.
	Warmup, Measure int64
	// Seed drives injection and the per-flow lane tie-break.
	Seed uint64
	// Obs attaches observability sinks: noc.* counters, the end-to-end
	// latency histogram, and per-hop-count latency histograms
	// ("noc.latency.hops=NN"), which split the latency distribution by
	// path length — the cheapest way to see whether congestion or
	// distance dominates. Nil is free and results are byte-identical
	// either way.
	Obs *obs.Observer
}

// Radix returns the node switch radix the configuration implies.
func (c Config) Radix() int {
	if c.Topology != nil {
		return c.Topology.Radix()
	}
	return c.Concentration + numDirs*c.LinkPorts
}

// Cores returns the total core count.
func (c Config) Cores() int {
	if c.Topology != nil {
		return c.Topology.Nodes() * c.Topology.Concentration()
	}
	return c.MeshW * c.MeshH * c.Concentration
}

func (c *Config) defaults() {
	if c.PacketFlits == 0 {
		c.PacketFlits = 4
	}
	if c.SourceQueueCap == 0 {
		c.SourceQueueCap = 64
	}
	if c.InputBufferPkts == 0 {
		c.InputBufferPkts = 4
	}
	if c.Warmup == 0 {
		c.Warmup = 5000
	}
	if c.Measure == 0 {
		c.Measure = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Topology == nil {
		c.Topology = Mesh{W: c.MeshW, H: c.MeshH, Conc: c.Concentration, Lanes: c.LinkPorts}
	}
}

func (c *Config) validate() error {
	type validator interface{ validate() error }
	if v, ok := c.Topology.(validator); ok {
		if err := v.validate(); err != nil {
			return err
		}
	}
	if c.NewSwitch == nil {
		return fmt.Errorf("noc: no switch factory")
	}
	if got := c.NewSwitch().Radix(); got != c.Topology.Radix() {
		return fmt.Errorf("noc: switch radix %d, topology needs %d", got, c.Topology.Radix())
	}
	return nil
}

// Result reports one network simulation.
type Result struct {
	// AcceptedPackets is delivered packets per cycle across the network.
	AcceptedPackets float64
	// AvgLatency is mean end-to-end packet latency in cycles.
	AvgLatency float64
	// P99Latency is the 99th percentile latency.
	P99Latency float64
	// AvgHops is the mean number of switch traversals per packet.
	AvgHops float64
	// Injected and Delivered count packets during measurement.
	Injected, Delivered int64
	// Dropped counts injections lost to full source queues.
	Dropped int64
}

type packet struct {
	born     int64
	destCore int
	hops     int
	// flow is a seed-derived hash of (run seed, source core, injection
	// sequence), drawn without consuming the injection rng stream. It
	// spreads a flow's packets over equivalent lanes in pickRoute.
	flow uint32
}

// node is one switch plus its port queues.
type node struct {
	sw      sim.Switch
	inQ     [][]packet // per switch input port
	resv    []int      // per input port: credits reserved by in-flight transfers
	sending []bool     // per input port: connection active
	remain  []int
	sendPkt []packet
	sendOut []int // granted output port
	req     []int
}

// Network is a network instance, usable for one Run.
type Network struct {
	cfg   Config
	topo  Topology
	nodes []*node
	srcQ  [][]packet // per core
	rng   []*prng.Source
	seq   []int64 // per core: injection sequence, feeds the flow hash
	hist  *stats.Histogram
	hops  stats.Summary
	cand  []int // scratch: route candidates

	hopHist []*obs.Histogram // per-hop-count latency, lazily created
}

// New builds the network.
func New(cfg Config) (*Network, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	n := &Network{
		cfg:   cfg,
		topo:  topo,
		nodes: make([]*node, topo.Nodes()),
		srcQ:  make([][]packet, cfg.Cores()),
		rng:   make([]*prng.Source, cfg.Cores()),
		seq:   make([]int64, cfg.Cores()),
		hist:  stats.NewHistogram(8, 8192),
	}
	radix := topo.Radix()
	for i := range n.nodes {
		n.nodes[i] = &node{
			sw:      cfg.NewSwitch(),
			inQ:     make([][]packet, radix),
			resv:    make([]int, radix),
			sending: make([]bool, radix),
			remain:  make([]int, radix),
			sendPkt: make([]packet, radix),
			sendOut: make([]int, radix),
			req:     make([]int, radix),
		}
	}
	root := prng.New(cfg.Seed)
	for i := range n.rng {
		n.rng[i] = root.Split()
	}
	return n, nil
}

// nodeOfCore returns the node hosting a core and its local port.
func (n *Network) nodeOfCore(core int) (nodeIdx, port int) {
	c := n.topo.Concentration()
	return core / c, core % c
}

// pickRoute selects the output port for a packet at node idx: the flow
// hash chooses among equivalent candidates, or the lane with most
// downstream credit under AdaptiveLanes. It returns -1 when no candidate
// has credit (links only; local delivery is always accepted).
func (n *Network) pickRoute(idx int, pkt packet) int {
	n.cand = n.topo.RouteCandidates(n.cand[:0], idx, pkt.destCore)
	conc := n.topo.Concentration()
	if len(n.cand) == 1 && n.cand[0] < conc {
		return n.cand[0] // local delivery
	}
	credit := func(out int) int {
		nb, inPort := n.topo.LinkDest(idx, out)
		down := n.nodes[nb]
		return n.cfg.InputBufferPkts - len(down.inQ[inPort]) - down.resv[inPort]
	}
	if n.cfg.AdaptiveLanes {
		best, bestFree := -1, 0
		for _, out := range n.cand {
			if free := credit(out); free > bestFree {
				best, bestFree = out, free
			}
		}
		return best
	}
	// The lane hash must be seed-derived, not structural: hashing on
	// (destCore + hops) pins every same-destination flow to the same
	// lane at each hop, so hotspot traffic serializes on one lane of a
	// multi-lane bundle no matter how many lanes exist. The flow hash
	// varies per (source, packet) while staying a pure function of the
	// run seed, so lane balance is statistical and every run — at any
	// sweep worker count — reproduces exactly. The hop count stays in
	// the hash so one packet doesn't ride lane k of every bundle on its
	// path.
	out := n.cand[(int(pkt.flow)+pkt.hops)%len(n.cand)]
	if credit(out) <= 0 {
		return -1 // hold until the fixed lane has credit
	}
	return out
}

// hopHistFor returns (creating lazily) the per-hop-count latency
// histogram. Only called when the observer carries a metrics registry.
func (n *Network) hopHistFor(hops int) *obs.Histogram {
	for hops >= len(n.hopHist) {
		n.hopHist = append(n.hopHist, nil)
	}
	if n.hopHist[hops] == nil {
		n.hopHist[hops] = n.cfg.Obs.Histogram(fmt.Sprintf("noc.latency.hops=%02d", hops), 8, 8192)
	}
	return n.hopHist[hops]
}

// Run drives the network for the configured windows. Traffic is uniform
// random over all cores at the given load (packets/cycle/core).
func (n *Network) Run(load float64) Result {
	res, _ := n.RunCtx(nil, load)
	return res
}

// ctxCheckInterval is how often (in simulated cycles) a cancellable run
// polls its context — same rationale as internal/sim: cheap enough to be
// unmeasurable, frequent enough to stop a cancelled kilo-core run within
// microseconds of wall time.
const ctxCheckInterval = 1024

// RunCtx is Run with cooperative cancellation: a non-nil ctx is polled
// every ctxCheckInterval cycles and the run aborts with the ctx error,
// returning a zero Result. A nil ctx never aborts and the simulated
// behaviour is byte-identical to Run.
func (n *Network) RunCtx(ctx context.Context, load float64) (Result, error) {
	cfg := n.cfg
	conc := n.topo.Concentration()
	// Per-hop histograms are created lazily, and only when a registry
	// can hold them.
	metricsOn := cfg.Obs != nil && cfg.Obs.Metrics != nil
	mInjected := cfg.Obs.Counter("noc.packets.injected")
	mDelivered := cfg.Obs.Counter("noc.packets.delivered")
	mDropped := cfg.Obs.Counter("noc.packets.dropped")
	mLatency := cfg.Obs.Histogram("noc.latency.cycles", 8, 8192)
	var injected, delivered, dropped int64
	total := cfg.Warmup + cfg.Measure

	type doneRec struct {
		nodeIdx, port int
	}
	for cycle := int64(0); cycle < total; cycle++ {
		if ctx != nil && cycle%ctxCheckInterval == 0 && ctx.Err() != nil {
			return Result{}, fmt.Errorf("noc: run cancelled at cycle %d: %w", cycle, ctx.Err())
		}
		measuring := cycle >= cfg.Warmup

		// Advance transmissions; completed packets move to the next hop
		// (or leave the network) after arbitration, then release.
		var done []doneRec
		for ni, nd := range n.nodes {
			for p := range nd.sending {
				if !nd.sending[p] {
					continue
				}
				nd.remain[p]--
				if nd.remain[p] == 0 {
					done = append(done, doneRec{ni, p})
				}
			}
		}

		// Build requests and arbitrate per node, respecting downstream
		// credits.
		for ni, nd := range n.nodes {
			for p := range nd.req {
				nd.req[p] = -1
				if nd.sending[p] || len(nd.inQ[p]) == 0 {
					continue
				}
				nd.req[p] = n.pickRoute(ni, nd.inQ[p][0])
			}
			for _, g := range nd.sw.Arbitrate(nd.req) {
				nd.sending[g.In] = true
				nd.remain[g.In] = cfg.PacketFlits
				nd.sendPkt[g.In] = nd.inQ[g.In][0]
				nd.sendOut[g.In] = g.Out
				nd.inQ[g.In] = nd.inQ[g.In][1:]
				if g.Out >= conc {
					// Reserve the downstream credit for the whole flight.
					nb, inPort := n.topo.LinkDest(ni, g.Out)
					n.nodes[nb].resv[inPort]++
				}
			}
		}

		// Complete finished traversals.
		for _, d := range done {
			nd := n.nodes[d.nodeIdx]
			nd.sending[d.port] = false
			nd.sw.Release(d.port)
			pkt := nd.sendPkt[d.port]
			pkt.hops++
			out := nd.sendOut[d.port]
			if out < conc {
				// Delivered to a local core.
				lat := cycle - pkt.born
				if measuring {
					delivered++
					n.hist.Add(float64(lat))
					n.hops.Add(float64(pkt.hops))
				}
				mDelivered.Inc()
				mLatency.Observe(float64(lat))
				if metricsOn {
					n.hopHistFor(pkt.hops).Observe(float64(lat))
				}
				continue
			}
			// Arrive on the linked input port of the neighbour,
			// consuming the credit reserved at grant time.
			nb, inPort := n.topo.LinkDest(d.nodeIdx, out)
			n.nodes[nb].inQ[inPort] = append(n.nodes[nb].inQ[inPort], pkt)
			n.nodes[nb].resv[inPort]--
		}

		// Inject new packets and feed core input ports.
		for core := range n.srcQ {
			if n.rng[core].Bernoulli(load) {
				dest := n.rng[core].Intn(cfg.Cores())
				if len(n.srcQ[core]) >= cfg.SourceQueueCap {
					if measuring {
						dropped++
					}
					mDropped.Inc()
				} else {
					n.srcQ[core] = append(n.srcQ[core], packet{
						born:     cycle,
						destCore: dest,
						flow:     uint32(pool.SeedFor(cfg.Seed, uint64(core), uint64(n.seq[core]))),
					})
					n.seq[core]++
					if measuring {
						injected++
					}
					mInjected.Inc()
				}
			}
			if len(n.srcQ[core]) > 0 {
				ni, port := n.nodeOfCore(core)
				// The core's switch port accepts waiting packets into its
				// bounded input buffer.
				if len(n.nodes[ni].inQ[port]) < cfg.InputBufferPkts {
					n.nodes[ni].inQ[port] = append(n.nodes[ni].inQ[port], n.srcQ[core][0])
					n.srcQ[core] = n.srcQ[core][1:]
				}
			}
		}
	}

	return Result{
		AcceptedPackets: float64(delivered) / float64(cfg.Measure),
		AvgLatency:      n.hist.Mean(),
		P99Latency:      n.hist.Quantile(0.99),
		AvgHops:         n.hops.Mean(),
		Injected:        injected,
		Delivered:       delivered,
		Dropped:         dropped,
	}, nil
}
