package fabric

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
)

// Config parameterizes one fabric simulation. The per-router discipline
// matches internal/sim exactly — one arbitration cycle plus PacketFlits
// data cycles per traversal, round-robin VC selection, bounded source
// queues — so a 1-node fabric reproduces sim.Run byte for byte (pinned
// by TestOneNodeFabricMatchesSim).
type Config struct {
	// Topo wires the routers.
	Topo Topology
	// NewSwitch builds one router's switch; its radix must equal the
	// topology's. Nil selects a flat crossbar of the right radix.
	NewSwitch func() sim.Switch
	// Routing selects minimal or Valiant route computation.
	Routing Routing
	// Traffic produces the offered load over cores (destinations are
	// core indices). Implementations come from internal/traffic.
	Traffic sim.Traffic
	// Load is the offered load in packets per cycle per core.
	Load float64
	// PacketFlits is the packet length (default 4).
	PacketFlits int
	// VCs is the number of virtual channels per input port (default 4).
	// The VCs split into equal contiguous bands, one per deadlock class
	// (Topology.Classes); VCs must be >= the class count.
	VCs int
	// VCBufPkts bounds each VC's input buffer in packets (default 1,
	// matching internal/sim's one-packet-per-VC discipline).
	VCBufPkts int
	// SourceQueueCap bounds per-core injection queues (default 64).
	SourceQueueCap int
	// Warmup and Measure are window lengths in cycles.
	Warmup, Measure int64
	// Seed drives injection, Valiant waypoint draws, and the
	// seed-derived lane tie-break.
	Seed uint64
	// Ctx, when non-nil, makes the run cancellable (polled every
	// ctxCheckInterval cycles, like internal/sim).
	Ctx context.Context
	// Obs attaches observability sinks: fabric.* counters, the latency
	// histogram, per-hop-count latency histograms, per-link busy-cycle
	// counters, and flit lifecycle trace events. Nil is free — no hook
	// allocates or branches beyond a nil check — and results are
	// byte-identical either way.
	Obs *obs.Observer
	// Faults, when non-nil, applies a static link/router fail-set from
	// cycle 0: failed lanes are never requested (surviving lanes of the
	// bundle reroute around the failure) and packets whose destination
	// router or every next-hop lane is failed are retired as dead
	// flows. Nil costs nothing.
	Faults *FaultSet
	// Check enables the invariant checker: credit conservation,
	// VC-class/band occupancy (the no-VC-cycle rule), grant sanity, and
	// end-of-run flit conservation (injected == delivered + in-flight +
	// dead). The deadlock watchdog is always on regardless.
	Check bool
}

// Defaults fills unset fields with the paper's parameters (same
// convention as sim.Config: zero means unset, Seed 0 becomes 1).
func (c *Config) Defaults() {
	if c.PacketFlits == 0 {
		c.PacketFlits = 4
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.VCBufPkts == 0 {
		c.VCBufPkts = 1
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
	if c.NewSwitch == nil && c.Topo != nil {
		radix := c.Topo.Radix()
		c.NewSwitch = func() sim.Switch { return crossbar.New(radix) }
	}
}

func (c *Config) validate() error {
	switch {
	case c.Topo == nil:
		return fmt.Errorf("fabric: no topology")
	case c.Traffic == nil:
		return fmt.Errorf("fabric: no traffic")
	case c.Load < 0:
		return fmt.Errorf("fabric: negative load %v", c.Load)
	case c.PacketFlits < 1 || c.VCs < 1 || c.VCBufPkts < 1 || c.SourceQueueCap < 1:
		return fmt.Errorf("fabric: non-positive structural parameter")
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("fabric: bad windows warmup=%d measure=%d", c.Warmup, c.Measure)
	case c.VCs > 64:
		return fmt.Errorf("fabric: %d VCs per port, at most 64 (one bit each in the credit masks)", c.VCs)
	}
	if err := c.Topo.validate(); err != nil {
		return err
	}
	if r := c.Topo.Radix(); r > math.MaxUint16 {
		return fmt.Errorf("fabric: radix %d exceeds the route tables' %d ports", r, math.MaxUint16)
	}
	if classes := c.Topo.Classes(c.Routing); c.VCs < classes {
		return fmt.Errorf("fabric: %d VCs cannot hold the %d deadlock classes %v routing needs",
			c.VCs, classes, c.Routing)
	}
	if got := c.NewSwitch().Radix(); got != c.Topo.Radix() {
		return fmt.Errorf("fabric: switch radix %d, topology needs %d", got, c.Topo.Radix())
	}
	if c.Faults != nil {
		if err := c.Faults.compatible(c.Topo); err != nil {
			return err
		}
	}
	return nil
}

// Result aggregates one fabric run's measurements. All rates are per
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
	// AvgHops is the mean number of switch traversals per packet
	// (delivery included, so a 1-node fabric reports 1).
	AvgHops float64
	// Injected and Delivered count packets during measurement.
	Injected, Delivered int64
	// DroppedInjections counts packets discarded at full source queues
	// during measurement.
	DroppedInjections int64
	// DeadFlows counts packets retired over the whole run because the
	// fail-set severed every route to their destination; 0 without
	// faults, so fault-free results serialize exactly as before.
	DeadFlows int64 `json:",omitempty"`
}

// Saturated reports whether offered traffic exceeded acceptance.
func (r Result) Saturated() bool { return r.DroppedInjections > 0 }

// ctxCheckInterval matches internal/sim's cancellation cadence.
const ctxCheckInterval = 1024

// watchdogCycles is the forward-progress horizon of the always-on
// deadlock watchdog: a fabric holding buffered packets that forms no
// connection and delivers nothing for this many consecutive cycles is
// declared deadlocked. The longest legitimate fabric-wide quiet gap is
// one packet flight (PacketFlits+1 cycles, grant to delivery), so the
// horizon has two orders of magnitude of slack while still firing
// inside short test runs — a silent wedge must be an error, not a
// zero-throughput Result.
const watchdogCycles = 1024

// checkInterval is the cadence of the periodic structural invariant
// scans (credit conservation, band occupancy) under Config.Check.
const checkInterval = 1024

type packet struct {
	birth int64
	flow  uint32 // seed-derived flow hash; lane tie-break
	dest  int32  // destination core
	via   int32  // Valiant waypoint (router or group), -1 when minimal
	hops  uint16
	class uint8
	phase uint8 // 0 = toward the waypoint, 1 = toward the destination
}

// route is a head packet's route computation (the RC stage of a VC
// router): everything about its next hop that depends only on the
// packet and the static topology. It is memoized per VC buffer, so RC
// runs once per head packet; only the VC-allocation stage (va), which
// tests downstream credit, runs every cycle the head waits.
//
// pushVC and popVC clear the memo on every change to its buffer, so it
// never outlives the head it was computed for. Clearing it only when
// the buffer empties is not enough: with VCBufPkts > 1 a pop exposes a
// new head under the old head's route.
type route struct {
	port  uint16 // ejection port, or the first lane of the next-hop bundle
	lanes uint16 // candidate lanes (surviving lanes under faults); 0 = no memo
	start uint16 // rotation start among the candidates: the lane tie-break
	class uint8  // class after the waypoint bump, before the link's bump
}

// fifo is a fixed-capacity ring buffer of packets (same rationale as
// internal/sim: one allocation for the whole run).
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

func (q *fifo) peek() *packet { return &q.buf[q.head] }

func (q *fifo) pop() packet {
	p := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// router is one switch plus its per-input connection state; its VC
// buffers live in the network-wide arrays.
type router struct {
	sw  sim.Switch
	req []int // per input port: requested output this cycle
	rr  []int // per input port: round-robin VC pointer
	// Active connections, per input port.
	active    []bool
	connVC    []int
	connOut   []int
	downVC    []int
	downClass []uint8
	remaining []int
}

// source is one core's injection state.
type source struct {
	rng  prng.Source
	q    fifo
	next int64 // injection sequence, feeds the flow hash
}

// network is the run state; built fresh by Run.
type network struct {
	cfg   Config
	topo  Topology
	conc  int
	radix int
	cores int
	vcs   int
	nodes []router
	src   []source
	rt    routeTables

	// VC buffer state, indexed by global slot (node*radix+port)*vcs+vc.
	vcq    []fifo
	resv   []uint8 // credits reserved by in-flight link transfers
	routes []route // memoized route of each buffer's head; lanes 0 = none
	// occ[node*radix+in] has bit v set iff input VC v holds a packet.
	occ []uint64
	// free[node*radix+out] mirrors, at the upstream end of a link, which
	// downstream VCs have a credit (occupancy + reservations below
	// VCBufPkts); zero on core and unwired ports. It changes exactly
	// where a downstream buffer's occupancy or reservations do.
	free []uint64
	// bandMask[c] is class c's contiguous VC band; vcMask is all VCs.
	bandMask []uint64
	vcMask   uint64
	// dead[node*radix+out] marks failed lanes and lanes into failed
	// routers; nil without faults.
	dead []bool

	rel []int // pending releases, encoded node*radix+port

	hist *obs.Histogram
	hops stats.Summary

	// Conservation and watchdog state.
	injTotal, delivTotal, deadTotal int64 // whole run, warmup included
	inNet                           int64 // packets buffered in VCs
	lastActivity                    int64

	// Observability handles (nil and free when cfg.Obs is nil).
	rec                                     *obs.Recorder
	mInjected, mDelivered, mDropped, mFlits *obs.Counter
	mWins, mLosses, mDead                   *obs.Counter
	mLatency                                *obs.Histogram
	hopHist                                 []*obs.Histogram
	linkBusy                                []*obs.Counter
}

// Run executes one fabric simulation and returns its measurements. It
// returns an error on configuration mistakes, context cancellation,
// invariant violations (Config.Check), and deadlock (always checked).
func Run(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := newNetwork(cfg)
	return n.run()
}

func newNetwork(cfg Config) *network {
	t := cfg.Topo
	n := &network{
		cfg:   cfg,
		topo:  t,
		conc:  t.Concentration(),
		radix: t.Radix(),
		cores: t.Nodes() * t.Concentration(),
		vcs:   cfg.VCs,
		nodes: make([]router, t.Nodes()),
		src:   make([]source, t.Nodes()*t.Concentration()),
		hist:  obs.NewHistogram(4, 4096),
	}
	// All router-local state and the route tables come from a handful of
	// network-wide slabs: a 72-router dragonfly otherwise pays thousands
	// of small allocations (one per VC buffer alone) before the first
	// cycle runs.
	nNodes := len(n.nodes)
	ports := nNodes * n.radix
	slots := ports * cfg.VCs
	classes := t.Classes(cfg.Routing)
	tInts, tU16s, tBytes := tableSizes(t, cfg.Routing)
	n.vcq = make([]fifo, slots)
	n.routes = make([]route, slots)
	pkts := make([]packet, slots*cfg.VCBufPkts+len(n.src)*cfg.SourceQueueCap)
	for i := range n.vcq {
		n.vcq[i].buf = carve(&pkts, cfg.VCBufPkts)
	}
	ints := make([]int, 7*ports+tInts)
	bytes := make([]uint8, slots+ports+tBytes)
	bools := make([]bool, ports)
	words := make([]uint64, 2*ports+classes)
	n.resv = carve(&bytes, slots)
	n.occ = carve(&words, ports)
	n.free = carve(&words, ports)
	n.bandMask = carve(&words, classes)
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.sw = cfg.NewSwitch()
		nd.downClass = carve(&bytes, n.radix)
		nd.active = carve(&bools, n.radix)
		nd.req = carve(&ints, n.radix)
		nd.rr = carve(&ints, n.radix)
		nd.connVC = carve(&ints, n.radix)
		nd.connOut = carve(&ints, n.radix)
		nd.downVC = carve(&ints, n.radix)
		nd.remaining = carve(&ints, n.radix)
	}
	n.rel = carve(&ints, ports)[:0]
	n.rt = buildTables(t, cfg.Routing, ints, make([]uint16, tU16s), bytes)

	n.vcMask = ^uint64(0) >> (64 - cfg.VCs)
	for c := 0; c < classes; c++ {
		lo, hi := c*cfg.VCs/classes, (c+1)*cfg.VCs/classes
		n.bandMask[c] = ^uint64(0) >> (64 - hi) &^ (1<<lo - 1)
	}
	// Every downstream VC starts empty: each link output holds all its
	// credits.
	for u, d := range n.rt.down {
		if d >= 0 {
			n.free[u] = n.vcMask
		}
	}
	if fs := cfg.Faults; fs != nil {
		n.dead = make([]bool, ports)
		for u, d := range n.rt.down {
			if d >= 0 {
				n.dead[u] = fs.LinkFailed(u/n.radix, u%n.radix) || fs.RouterFailed(d/n.radix)
			}
		}
	}

	root := prng.New(cfg.Seed)
	for i := range n.src {
		root.SplitTo(&n.src[i].rng)
		n.src[i].q.buf = carve(&pkts, cfg.SourceQueueCap)
	}
	return n
}

// carve cuts the next k elements off the front of a slab.
func carve[T any](slab *[]T, k int) []T {
	s := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return s
}

// nodeOfCore returns the router hosting a core and its local port.
func (n *network) nodeOfCore(core int) (node, port int) {
	return core / n.conc, core % n.conc
}

// pushVC appends a packet to input VC v of global port gp.
func (n *network) pushVC(gp, v int, p packet) {
	n.vcq[gp*n.vcs+v].push(p)
	n.routes[gp*n.vcs+v].lanes = 0
	n.occ[gp] |= 1 << v
}

// popVC removes the head of input VC v of global port gp. The freed
// buffer slot is a credit for the upstream output feeding gp.
func (n *network) popVC(gp, v int) packet {
	q := &n.vcq[gp*n.vcs+v]
	p := q.pop()
	n.routes[gp*n.vcs+v].lanes = 0
	if q.n == 0 {
		n.occ[gp] &^= 1 << v
	}
	if u := n.rt.up[gp]; u >= 0 {
		n.free[u] |= 1 << v
	}
	return p
}

// rc is the route-computation stage for a head packet at router ni. It
// returns retire=true when the static fail-set severed every route (the
// packet can never be delivered).
func (n *network) rc(ni int, pkt *packet) (r route, retire bool) {
	destNode := int(pkt.dest) / n.conc
	if ni == destNode {
		return route{port: uint16(int(pkt.dest) % n.conc), lanes: 1, class: pkt.class}, false
	}
	fs := n.cfg.Faults
	if fs != nil && fs.RouterFailed(destNode) {
		return route{}, true
	}
	r = route{lanes: uint16(n.rt.lanes), class: pkt.class}
	if pkt.phase == 0 {
		r.port = n.rt.viaPort[ni*n.rt.vias+int(pkt.via)]
	} else {
		r.port = n.rt.minPort[ni*n.rt.nodes+destNode]
		if pkt.via >= 0 && n.rt.viaOf[ni] == int(pkt.via) {
			// Dateline: the class bump happens on departure FROM the
			// waypoint, not on the hop into it, so each grid class band
			// carries one uninterrupted dimension-ordered route segment
			// (src->via in class 0, via->dst in class 1) and its channel
			// dependency graph stays acyclic. Bumping a hop early would
			// mix the tail of phase 0 into the class-1 band and admit
			// Y->X dependencies there — a real deadlock, caught by
			// TestSaturationTerminates when tried.
			r.class += uint8(n.topo.ViaBump())
		}
	}
	if n.dead != nil {
		// Reroute around failures: only the surviving lanes of the
		// bundle are candidates. The fail-set's per-bundle budget
		// guarantees link faults alone never empty a candidate set;
		// router faults can, and then the flow is dead.
		r.lanes = 0
		base := ni*n.radix + int(r.port)
		for _, dead := range n.dead[base : base+n.rt.lanes] {
			if !dead {
				r.lanes++
			}
		}
		if r.lanes == 0 {
			return route{}, true
		}
	}
	// Seed-derived lane tie-break (the flow hash is derived from the run
	// seed at injection): va tries the lanes in rotation from here, so
	// backpressure on one lane spills to its siblings.
	r.start = uint16((int(pkt.flow) + int(pkt.hops)) % int(r.lanes))
	return r, false
}

// va is the VC-allocation stage for a routed head at the router whose
// ports start at global id pid: the first candidate lane, in rotation
// from the route's start, whose downstream class band has a credit,
// and the lowest such VC. ok is false when every lane lacks credit this
// cycle (the packet holds). Ejection needs no credit.
func (n *network) va(pid int, r route) (out, downVC int, downClass uint8, ok bool) {
	if int(r.port) < n.conc {
		return int(r.port), -1, r.class, true
	}
	base := pid + int(r.port)
	j := int(r.start)
	for k := 0; k < int(r.lanes); k++ {
		o := base + j
		if n.dead != nil {
			o = n.liveLane(base, j)
		}
		ca := r.class + n.rt.bump[o]
		if f := n.free[o] & n.bandMask[ca]; f != 0 {
			return o - pid, bits.TrailingZeros64(f), ca, true
		}
		if j++; j == int(r.lanes) {
			j = 0
		}
	}
	return 0, 0, 0, false
}

// liveLane returns the global id of the j-th surviving lane of the
// bundle whose first lane is base.
func (n *network) liveLane(base, j int) int {
	o := base
	for ; n.dead[o] || j > 0; o++ {
		if !n.dead[o] {
			j--
		}
	}
	return o
}

func (n *network) run() (Result, error) {
	cfg := n.cfg
	obsOn := cfg.Obs != nil
	// Per-hop histograms and per-link counters are created lazily, and
	// only when a registry can hold them.
	metricsOn := obsOn && cfg.Obs.Metrics != nil
	// Each event counter is one handle, read as a track by the sampler
	// when there is one.
	samp := cfg.Obs.Sampler()
	n.rec = cfg.Obs.Rec()
	n.mInjected = cfg.Obs.TrackedCounter(samp, "fabric.packets.injected")
	n.mDelivered = cfg.Obs.TrackedCounter(samp, "fabric.packets.delivered")
	n.mDropped = cfg.Obs.TrackedCounter(samp, "fabric.packets.dropped")
	n.mFlits = cfg.Obs.TrackedCounter(samp, "fabric.flits.delivered")
	n.mWins = cfg.Obs.TrackedCounter(samp, "fabric.arb.wins")
	n.mLosses = cfg.Obs.TrackedCounter(samp, "fabric.arb.losses")
	n.mDead = cfg.Obs.TrackedCounter(samp, "fabric.packets.dead")
	n.mLatency = cfg.Obs.Histogram("fabric.latency.cycles", 4, 4096)
	cfg.Obs.Gauge("fabric.offered.load").Set(cfg.Load)
	if metricsOn {
		n.linkBusy = make([]*obs.Counter, len(n.nodes)*n.radix)
	}
	if samp != nil {
		samp.GaugeFunc("fabric.queue.occupancy", func() float64 {
			var occ int64 = n.inNet
			for i := range n.src {
				occ += int64(n.src[i].q.n)
			}
			return float64(occ)
		})
		samp.GaugeFunc("fabric.flits.inflight", func() float64 {
			var fl int
			for i := range n.nodes {
				nd := &n.nodes[i]
				for p := range nd.active {
					if nd.active[p] {
						fl += nd.remaining[p]
					}
				}
			}
			return float64(fl)
		})
	}

	var chk *checker
	if cfg.Check {
		chk = newChecker(n)
	}

	var injected, delivered, dropped, flits int64
	total := cfg.Warmup + cfg.Measure
	for cycle := int64(0); cycle < total; cycle++ {
		if cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("fabric: run cancelled at cycle %d: %w", cycle, cfg.Ctx.Err())
		}
		measuring := cycle >= cfg.Warmup

		// 1. Advance active transmissions; completions deliver locally
		// or arrive on the linked neighbour input, consuming the credit
		// reserved at grant time. Resources release only after this
		// cycle's arbitration, matching the priority-bus reuse.
		n.rel = n.rel[:0]
		for ni := range n.nodes {
			nd := &n.nodes[ni]
			pid := ni * n.radix
			for in := range nd.active {
				if !nd.active[in] {
					continue
				}
				nd.remaining[in]--
				if nd.remaining[in] > 0 {
					continue
				}
				nd.active[in] = false
				n.rel = append(n.rel, pid+in)
				pkt := n.popVC(pid+in, nd.connVC[in])
				n.inNet--
				pkt.hops++
				out := nd.connOut[in]
				if metricsOn && out >= n.conc {
					n.linkBusyCounter(ni, out).Add(int64(cfg.PacketFlits) + 1)
				}
				if out < n.conc {
					lat := cycle - pkt.birth
					if measuring {
						n.hist.Observe(float64(lat))
						n.hops.Add(float64(pkt.hops))
						delivered++
						flits += int64(cfg.PacketFlits)
					}
					n.delivTotal++
					n.lastActivity = cycle
					n.mDelivered.Inc()
					n.mFlits.Add(int64(cfg.PacketFlits))
					n.mLatency.Observe(float64(lat))
					if metricsOn {
						n.hopHistFor(int(pkt.hops)).Observe(float64(lat))
					}
					n.rec.Record(cycle, obs.EvEject, int(pkt.dest), int(pkt.dest), int(lat))
					continue
				}
				dp := n.rt.down[pid+out]
				pkt.class = nd.downClass[in]
				if pkt.phase == 0 && n.rt.viaOf[dp/n.radix] == int(pkt.via) {
					pkt.phase = 1
				}
				n.pushVC(dp, nd.downVC[in], pkt)
				n.resv[dp*n.vcs+nd.downVC[in]]--
				n.inNet++
			}
		}

		// 2. Build requests from unconnected inputs with waiting
		// packets, selecting the candidate VC round-robin; statically
		// unroutable heads are retired as dead flows.
		for ni := range n.nodes {
			if cfg.Faults != nil && cfg.Faults.RouterFailed(ni) {
				continue // fail-stop: the router arbitrates nothing
			}
			nd := &n.nodes[ni]
			pid := ni * n.radix
			for in := range nd.req {
				nd.req[in] = -1
				gp := pid + in
				if nd.active[in] || n.occ[gp] == 0 {
					continue
				}
				// Rotate the occupied VCs so bit k is VC (rr+k) mod vcs:
				// the round-robin scan order.
				rr, occ := nd.rr[in], n.occ[gp]
				for pend := (occ>>rr | occ<<(n.vcs-rr)) & n.vcMask; pend != 0; pend &= pend - 1 {
					v := rr + bits.TrailingZeros64(pend)
					if v >= n.vcs {
						v -= n.vcs
					}
					slot := gp*n.vcs + v
					if n.routes[slot].lanes == 0 {
						r, retire := n.rc(ni, n.vcq[slot].peek())
						if retire {
							dead := n.popVC(gp, v)
							n.inNet--
							n.deadTotal++
							n.lastActivity = cycle
							n.mDead.Inc()
							n.rec.Record(cycle, obs.EvDeadFlow, gp, int(dead.dest), int(cycle-dead.birth))
							continue
						}
						n.routes[slot] = r
					}
					out, dvc, dclass, ok := n.va(pid, n.routes[slot])
					if !ok {
						continue
					}
					if nd.rr[in] = v + 1; nd.rr[in] == n.vcs {
						nd.rr[in] = 0
					}
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
				if chk != nil {
					if err := chk.checkGrant(cycle, ni, g.In, g.Out); err != nil {
						return Result{}, err
					}
				}
				nd.active[g.In] = true
				nd.remaining[g.In] = cfg.PacketFlits
				if g.Out >= n.conc {
					// The reserved credit may have been the downstream
					// VC's last: mirror that at this output.
					u, dvc := pid+g.Out, nd.downVC[g.In]
					slot := n.rt.down[u]*n.vcs + dvc
					if n.resv[slot]++; n.vcq[slot].n+int(n.resv[slot]) >= cfg.VCBufPkts {
						n.free[u] &^= 1 << dvc
					}
				}
				n.lastActivity = cycle
				n.mWins.Inc()
				n.rec.Record(cycle, obs.EvArbWin, ni*n.radix+g.In, ni*n.radix+g.Out, cfg.PacketFlits)
			}
			if obsOn {
				for in := range nd.req {
					if nd.req[in] >= 0 && !nd.active[in] {
						n.mLosses.Inc()
						n.rec.Record(cycle, obs.EvArbLose, ni*n.radix+in, ni*n.radix+nd.req[in], 0)
					}
				}
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
				continue // cores behind a failed router cannot inject
			}
			s := &n.src[core]
			if dest, okInj := cfg.Traffic.Next(core, cycle, cfg.Load, &s.rng); okInj {
				if s.q.full() {
					if measuring {
						dropped++
					}
					n.mDropped.Inc()
					n.rec.Record(cycle, obs.EvDrop, core, dest, 0)
				} else {
					pkt := packet{
						birth: cycle,
						dest:  int32(dest),
						via:   -1,
						phase: 1,
						flow:  uint32(pool.SeedFor(cfg.Seed, uint64(core), uint64(s.next))),
					}
					if cfg.Routing == Valiant {
						srcNode, _ := n.nodeOfCore(core)
						if via := n.topo.ValiantVia(srcNode, dest/n.conc, &s.rng); via >= 0 {
							pkt.via = int32(via)
							pkt.phase = 0
						}
					}
					s.q.push(pkt)
					s.next++
					n.injTotal++
					if measuring {
						injected++
					}
					n.mInjected.Inc()
					n.rec.Record(cycle, obs.EvInject, core, dest, 0)
				}
			}
			if s.q.n > 0 {
				ni, port := n.nodeOfCore(core)
				gp := ni*n.radix + port
				for band := n.bandMask[0]; band != 0 && s.q.n > 0; band &= band - 1 {
					v := bits.TrailingZeros64(band)
					if n.vcq[gp*n.vcs+v].full() {
						continue
					}
					p := s.q.pop()
					n.pushVC(gp, v, p)
					n.inNet++
					n.rec.Record(cycle, obs.EvVCAlloc, core, int(p.dest), v)
				}
			}
		}

		// 6. Deadlock watchdog (always on) and periodic structural
		// invariants (Config.Check), then the telemetry window tick.
		if n.inNet > 0 && cycle-n.lastActivity > watchdogCycles {
			return Result{}, fmt.Errorf(
				"fabric: deadlock at cycle %d: %d packets buffered, no progress for %d cycles",
				cycle, n.inNet, watchdogCycles)
		}
		if chk != nil && cycle%checkInterval == checkInterval-1 {
			if err := chk.scan(cycle); err != nil {
				return Result{}, err
			}
		}
		samp.Tick(cycle + 1)
	}

	if chk != nil {
		if err := chk.conservation(); err != nil {
			return Result{}, err
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

// hopHistFor returns (creating lazily) the per-hop-count latency
// histogram. Only called when the observer carries a metrics registry.
func (n *network) hopHistFor(hops int) *obs.Histogram {
	for hops >= len(n.hopHist) {
		n.hopHist = append(n.hopHist, nil)
	}
	if n.hopHist[hops] == nil {
		n.hopHist[hops] = n.cfg.Obs.Histogram(fmt.Sprintf("fabric.latency.hops=%02d", hops), 4, 4096)
	}
	return n.hopHist[hops]
}

// linkBusyCounter returns (creating lazily) the busy-cycle counter for
// output port out of router ni. Only called when the observer carries a
// metrics registry; links that never carry traffic never appear.
func (n *network) linkBusyCounter(ni, out int) *obs.Counter {
	id := ni*n.radix + out
	if n.linkBusy[id] == nil {
		n.linkBusy[id] = n.cfg.Obs.Counter(fmt.Sprintf("fabric.link.busy[n%03d.p%02d]", ni, out))
	}
	return n.linkBusy[id]
}
