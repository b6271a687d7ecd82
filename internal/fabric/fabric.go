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
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
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
// packet and the static topology, resolved down to what the VC
// allocation stage (va) reads every cycle the head waits. It is
// memoized per VC buffer, so RC runs once per head packet.
//
// The lanes of one bundle lead to the same neighbour over the same
// kind of link, so they share the class bump, and dclass and band hold
// for every candidate lane.
//
// pushVC and popVC clear the memo on every change to its buffer, so it
// never outlives the head it was computed for. Clearing it only when
// the buffer empties is not enough: with VCBufPkts > 1 a pop exposes a
// new head under the old head's route.
type route struct {
	// band is the downstream class band: the VCs the packet may take at
	// the next input (or, for ejection, any of the class's VCs; ejection
	// ports always hold every credit).
	band uint64
	// out is the global id of the ejection port, of the only surviving
	// lane, or of the first lane of the next-hop bundle.
	out   int32
	lanes uint16 // candidate lanes (surviving lanes under faults); 0 = no memo
	start uint16 // rotation start among the candidates: the lane tie-break
	// dclass is the packet's class after the hop: the waypoint bump and
	// the link's bump applied.
	dclass uint8
}

// fifo is a fixed-capacity ring buffer of packets (same rationale as
// internal/sim: one allocation for the whole run). The source queues
// use it.
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

// vcBuf is one input VC buffer: a ring of VCBufPkts packets in the
// network's packet slab, at [slot*VCBufPkts, (slot+1)*VCBufPkts).
type vcBuf struct {
	head, n int32
	resv    int32 // credits reserved by in-flight link transfers
}

// port is everything the cycle loop keeps per router port, in one
// record indexed by global port id (node*radix + port). A port is read
// both as an input (its VCs, round-robin pointer and connection) and as
// an output (the credit mirror of the downstream input it feeds).
type port struct {
	finish int64  // cycle the active connection's last flit crosses
	occ    uint64 // bit v set iff input VC v holds a packet
	full   uint64 // bit v set iff input VC v holds VCBufPkts packets
	// free mirrors, at the upstream end of a link, which downstream VCs
	// have a credit (occupancy + reservations below VCBufPkts). It
	// changes exactly where a downstream buffer's occupancy or
	// reservations do. Ejection ports hold every credit for good;
	// unwired ports hold none.
	free      uint64
	rr        int32 // round-robin VC pointer
	connVC    int32 // input VC of the connection (or this cycle's request)
	connOut   int32 // local output of the connection (or this cycle's request)
	downVC    int32 // downstream VC the connection reserved
	node      int32 // router of the port
	up        int32 // global id of the upstream output feeding this input, -1 if none
	downClass uint8
	active    bool
}

// source is one core's injection state.
type source struct {
	rng  prng.Source
	q    fifo
	next int64 // injection sequence, feeds the flow hash
	gp   int   // global id of the core's router port
}

// network is the run state; built fresh by Run.
type network struct {
	cfg   Config
	topo  Topology
	conc  int
	radix int
	vcs   int
	bufs  int // VCBufPkts
	src   []source
	rt    routeTables

	ports []port
	// VC buffer state, indexed by global slot (node*radix+port)*vcs+vc.
	vcb    []vcBuf
	pkts   []packet // VC rings: slot*bufs + i
	routes []route  // memoized route of each buffer's head; lanes 0 = none
	// bandMask[c] is class c's contiguous VC band; vcMask is all VCs.
	bandMask []uint64
	vcMask   uint64
	// dead[node*radix+out] marks failed lanes and lanes into failed
	// routers; nil without faults.
	dead []bool

	// The request phase visits only the inputs that can change what
	// they request. words is the length of a router's input bitset.
	//
	// ready[node*words + in>>6] has bit in&63 set for an input that must
	// be evaluated this cycle: every idle input with packets, except a
	// sleeping one, which would request nothing that could be granted
	// until something it waits on changes. An input goes to sleep when
	//
	//   - every head failed VC allocation: until a credit returns on one
	//     of its candidate lanes or a packet arrives at one of its VCs,
	//     every head fails again, because credits only ever leave its
	//     outputs' mirrors and its heads, memos and round-robin pointer
	//     stay as they are; or (LRG kernels only)
	//   - exactly one head passed VC allocation, toward an output that
	//     carries another connection: the kernel ignores that request,
	//     and until the output releases, a credit returns or a packet
	//     arrives, the input requests the same output from the same VC,
	//     last in round-robin order, and is ignored again.
	//
	// waiters[out*words + in>>6] has bit in&63 set for each input of
	// out's router asleep on global output out; a credit return on out
	// and out's release wake them all.
	words   int
	ready   []uint64
	waiters []uint64
	// active has bit gp set for every input port with a connection.
	active []uint64

	// Arbitration: one generic sim.Switch per router, or, when every
	// router is a stock LRG crossbar and no observer is attached, one
	// crossbar.LRGKernel per router.
	sws  []sim.Switch
	kern []crossbar.LRGKernel
	// req[gp] is the local output input gp requests this cycle, or -1;
	// a router's slice is the argument of its Switch.Arbitrate.
	req    []int
	reqd   []int32      // this router's requesting inputs (local ids)
	grants []topo.Grant // fused arbitration's grant buffer
	rel    []int32      // pending releases, by global port id

	hist *obs.Histogram
	hops stats.Summary

	// Conservation and watchdog state.
	injTotal, delivTotal, deadTotal int64 // whole run, warmup included
	inNet                           int64 // packets buffered in VCs
	lastActivity                    int64
	now                             int64 // the cycle being simulated

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
	stock := cfg.NewSwitch == nil
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := newNetwork(cfg, stock)
	return n.run()
}

// newNetwork builds the run state. stock reports that the routers are
// the default crossbars (Config.NewSwitch was nil): with no observer
// they run on LRG kernels and no switch object is built.
func newNetwork(cfg Config, stock bool) *network {
	t := cfg.Topo
	n := &network{
		cfg:   cfg,
		topo:  t,
		conc:  t.Concentration(),
		radix: t.Radix(),
		vcs:   cfg.VCs,
		bufs:  cfg.VCBufPkts,
		src:   make([]source, t.Nodes()*t.Concentration()),
		hist:  obs.NewHistogram(4, obs.RunHistogramBins(cfg.Warmup+cfg.Measure-1)),
	}
	// All router-local state and the route tables come from a handful of
	// network-wide slabs: a 72-router dragonfly otherwise pays thousands
	// of small allocations (one per VC buffer alone) before the first
	// cycle runs.
	nodes := t.Nodes()
	ports := nodes * n.radix
	slots := ports * cfg.VCs
	classes := t.Classes(cfg.Routing)
	n.words = (n.radix + 63) / 64
	tInts, tU16s, tBytes := tableSizes(t, cfg.Routing)
	n.ports = make([]port, ports)
	n.vcb = make([]vcBuf, slots)
	n.routes = make([]route, slots)
	n.pkts = make([]packet, slots*cfg.VCBufPkts+len(n.src)*cfg.SourceQueueCap)
	ints := make([]int, ports+tInts)
	words := make([]uint64, classes+(nodes+ports)*n.words+(ports+63)/64)
	n.bandMask = carve(&words, classes)
	n.ready = carve(&words, nodes*n.words)
	n.waiters = carve(&words, ports*n.words)
	n.active = carve(&words, (ports+63)/64)
	n.req = carve(&ints, ports)
	n.rt = buildTables(t, cfg.Routing, ints, make([]uint16, tU16s), make([]uint8, tBytes))
	n.reqd = make([]int32, 0, n.radix)
	n.rel = make([]int32, 0, ports)
	for i := range n.req {
		n.req[i] = -1
	}

	n.vcMask = ^uint64(0) >> (64 - cfg.VCs)
	for c := 0; c < classes; c++ {
		lo, hi := c*cfg.VCs/classes, (c+1)*cfg.VCs/classes
		n.bandMask[c] = ^uint64(0) >> (64 - hi) &^ (1<<lo - 1)
	}
	for gp := range n.ports {
		p := &n.ports[gp]
		node, local := gp/n.radix, gp%n.radix
		p.node, p.up = int32(node), int32(n.rt.up[gp])
		// Ejection needs no credit; every downstream VC starts empty.
		if local < n.conc || n.rt.down[gp] >= 0 {
			p.free = n.vcMask
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

	// Arbitration backend. Observers reach into the switches'
	// arbitration events, so they keep the generic path.
	fused := cfg.Obs == nil && stock
	if !fused {
		n.sws = make([]sim.Switch, nodes)
		plain := cfg.Obs == nil
		for i := range n.sws {
			n.sws[i] = cfg.NewSwitch()
			xb, ok := n.sws[i].(*crossbar.Switch)
			plain = plain && ok && xb.PlainLRG()
		}
		// Caller-built stock crossbars are as good as ours: fresh, with
		// identity-order LRG at every column.
		fused = plain
	}
	if fused {
		n.sws = nil
		n.kern = crossbar.NewLRGKernels(nodes, n.radix)
		n.grants = make([]topo.Grant, 0, n.radix)
	}

	pkts := n.pkts[slots*cfg.VCBufPkts:]
	n.pkts = n.pkts[:slots*cfg.VCBufPkts]
	root := prng.New(cfg.Seed)
	for i := range n.src {
		s := &n.src[i]
		root.SplitTo(&s.rng)
		s.q.buf = carve(&pkts, cfg.SourceQueueCap)
		s.gp = i/n.conc*n.radix + i%n.conc
	}
	return n
}

// carve cuts the next k elements off the front of a slab.
func carve[T any](slab *[]T, k int) []T {
	s := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return s
}

// head returns the head packet of a non-empty VC slot.
func (n *network) head(slot int) *packet {
	return &n.pkts[slot*n.bufs+int(n.vcb[slot].head)]
}

// pushVC appends a packet to input VC v of global port gp and wakes
// the input if it is idle.
func (n *network) pushVC(gp, v int, pk packet) {
	slot := gp*n.vcs + v
	b := &n.vcb[slot]
	i := int(b.head + b.n)
	if i >= n.bufs {
		i -= n.bufs
	}
	n.pkts[slot*n.bufs+i] = pk
	b.n++
	n.routes[slot].lanes = 0
	p := &n.ports[gp]
	p.occ |= 1 << v
	if int(b.n) == n.bufs {
		p.full |= 1 << v
	}
	if !p.active {
		in := gp - int(p.node)*n.radix
		n.ready[int(p.node)*n.words+in>>6] |= 1 << (in & 63)
	}
}

// popVC removes the head of input VC v of global port gp. The freed
// buffer slot is a credit for the upstream output feeding gp, which
// wakes every input asleep on that output.
func (n *network) popVC(gp, v int) packet {
	slot := gp*n.vcs + v
	b := &n.vcb[slot]
	pk := n.pkts[slot*n.bufs+int(b.head)]
	if b.head++; int(b.head) == n.bufs {
		b.head = 0
	}
	b.n--
	n.routes[slot].lanes = 0
	p := &n.ports[gp]
	p.full &^= 1 << v
	if b.n == 0 {
		p.occ &^= 1 << v
	}
	if u := int(p.up); u >= 0 {
		n.ports[u].free |= 1 << v
		n.wake(u)
	}
	return pk
}

// wake makes every input asleep on global output u ready.
func (n *network) wake(u int) {
	ready := n.ready[int(n.ports[u].node)*n.words:]
	waiters := n.waiters[u*n.words : (u+1)*n.words]
	for w, m := range waiters {
		if m != 0 {
			ready[w] |= m
			waiters[w] = 0
		}
	}
}

// rc is the route-computation stage for a head packet at router ni. It
// returns retire=true when the static fail-set severed every route (the
// packet can never be delivered).
func (n *network) rc(ni int, pkt *packet) (r route, retire bool) {
	destNode := int(pkt.dest) / n.conc
	if ni == destNode {
		return route{
			band: n.bandMask[pkt.class], out: int32(ni*n.radix + int(pkt.dest)%n.conc),
			lanes: 1, dclass: pkt.class,
		}, false
	}
	fs := n.cfg.Faults
	if fs != nil && fs.RouterFailed(destNode) {
		return route{}, true
	}
	class := pkt.class
	var local uint16
	if pkt.phase == 0 {
		local = n.rt.viaPort[ni*n.rt.vias+int(pkt.via)]
	} else {
		local = n.rt.minPort[ni*n.rt.nodes+destNode]
		if pkt.via >= 0 && n.rt.viaOf[ni] == int(pkt.via) {
			// Dateline: the class bump happens on departure FROM the
			// waypoint, not on the hop into it, so each grid class band
			// carries one uninterrupted dimension-ordered route segment
			// (src->via in class 0, via->dst in class 1) and its channel
			// dependency graph stays acyclic. Bumping a hop early would
			// mix the tail of phase 0 into the class-1 band and admit
			// Y->X dependencies there — a real deadlock, caught by
			// TestSaturationTerminates when tried.
			class += uint8(n.topo.ViaBump())
		}
	}
	base := ni*n.radix + int(local)
	r = route{out: int32(base), lanes: uint16(n.rt.lanes)}
	if n.dead != nil {
		// Reroute around failures: only the surviving lanes of the
		// bundle are candidates. The fail-set's per-bundle budget
		// guarantees link faults alone never empty a candidate set;
		// router faults can, and then the flow is dead.
		r.lanes = 0
		for _, dead := range n.dead[base : base+n.rt.lanes] {
			if !dead {
				r.lanes++
			}
		}
		switch r.lanes {
		case 0:
			return route{}, true
		case 1:
			r.out = int32(n.liveLane(base, 0))
		}
	}
	r.dclass = class + n.rt.bump[base]
	r.band = n.bandMask[r.dclass]
	// Seed-derived lane tie-break (the flow hash is derived from the run
	// seed at injection): va tries the lanes in rotation from here, so
	// backpressure on one lane spills to its siblings.
	r.start = uint16((int(pkt.flow) + int(pkt.hops)) % int(r.lanes))
	return r, false
}

// lane returns the global id of the j-th candidate lane of a
// multi-lane route.
func (n *network) lane(r *route, j int) int {
	if n.dead != nil {
		return n.liveLane(int(r.out), j)
	}
	return int(r.out) + j
}

// va is the VC-allocation stage for a routed head: the first candidate
// lane, in rotation from the route's start, whose downstream band has
// a credit, and its free VCs in that band. free is 0 when every lane
// lacks credit this cycle (the packet holds). The single-lane case is
// one AND; ejection is a single lane that always has credit.
func (n *network) va(r *route) (out int, free uint64) {
	if r.lanes == 1 {
		return int(r.out), n.ports[r.out].free & r.band
	}
	j := int(r.start)
	for k := 0; k < int(r.lanes); k++ {
		o := n.lane(r, j)
		if f := n.ports[o].free & r.band; f != 0 {
			return o, f
		}
		if j++; j == int(r.lanes) {
			j = 0
		}
	}
	return 0, 0
}

// sleep registers local input in as a waiter on every candidate lane
// of a head.
func (n *network) sleep(r *route, in int) {
	if r.lanes == 1 {
		n.waiters[int(r.out)*n.words+in>>6] |= 1 << (in & 63)
		return
	}
	for j := 0; j < int(r.lanes); j++ {
		n.waiters[n.lane(r, j)*n.words+in>>6] |= 1 << (in & 63)
	}
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

// request runs the RC and VA stages for the idle input gp (local id
// in) of router ni: the candidate VC is picked round-robin among the
// occupied VCs whose head has a credited next hop, and statically
// unroutable heads are retired as dead flows. It reports whether the
// input requested an output. An input that goes to sleep instead (see
// network.ready) is registered on every candidate lane of every head.
func (n *network) request(ni, in, gp int) (requested bool) {
	p := &n.ports[gp]
	retired := false
	// Rotate the occupied VCs so bit k is VC (rr+k) mod vcs: the
	// round-robin scan order.
	rr, occ := int(p.rr), p.occ
	for pend := (occ>>rr | occ<<(n.vcs-rr)) & n.vcMask; pend != 0; pend &= pend - 1 {
		v := rr + bits.TrailingZeros64(pend)
		if v >= n.vcs {
			v -= n.vcs
		}
		slot := gp*n.vcs + v
		r := &n.routes[slot]
		if r.lanes == 0 {
			rt, retire := n.rc(ni, n.head(slot))
			if retire {
				dead := n.popVC(gp, v)
				n.inNet--
				n.deadTotal++
				n.lastActivity = n.now
				n.mDead.Inc()
				n.rec.Record(n.now, obs.EvDeadFlow, gp, int(dead.dest), int(n.now-dead.birth))
				retired = true
				continue
			}
			*r = rt
		}
		o, free := n.va(r)
		if free == 0 {
			n.sleep(r, in)
			continue
		}
		if p.rr = int32(v + 1); p.rr == int32(n.vcs) {
			p.rr = 0
		}
		local := o - ni*n.radix
		p.connVC, p.connOut = int32(v), int32(local)
		p.downVC, p.downClass = int32(bits.TrailingZeros64(free)), r.dclass
		if n.kern != nil && !retired && n.kern[ni].Busy(local) && n.restFail(gp, in, v, pend&(pend-1), rr) {
			n.sleep(r, in)
			n.ready[ni*n.words+in>>6] &^= 1 << (in & 63)
			return false
		}
		n.req[gp] = local
		n.reqd = append(n.reqd, int32(in))
		if n.kern != nil {
			n.kern[ni].Request(in, local)
		}
		return true
	}
	if !retired || p.occ == 0 {
		n.ready[ni*n.words+in>>6] &^= 1 << (in & 63)
	}
	return false
}

// restFail reports whether every head in the rest of the round-robin
// scan (pend, rotated by rr) is routed and fails VC allocation, putting
// the input to sleep on each. Heads are not routed here: a head without
// a memo may retire, and it must do so on the cycle the reference order
// reaches it.
func (n *network) restFail(gp, in, v int, pend uint64, rr int) bool {
	for ; pend != 0; pend &= pend - 1 {
		w := rr + bits.TrailingZeros64(pend)
		if w >= n.vcs {
			w -= n.vcs
		}
		r := &n.routes[gp*n.vcs+w]
		if r.lanes == 0 {
			return false
		}
		if _, free := n.va(r); free != 0 {
			return false
		}
		n.sleep(r, in)
	}
	return true
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
	n.mLatency = cfg.Obs.Histogram("fabric.latency.cycles", 4, obs.MaxLatencyBins)
	cfg.Obs.Gauge("fabric.offered.load").Set(cfg.Load)
	if metricsOn {
		n.linkBusy = make([]*obs.Counter, len(n.ports))
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
			var fl int64
			for gp := range n.ports {
				if n.ports[gp].active {
					fl += n.ports[gp].finish - n.now
				}
			}
			return float64(fl)
		})
	}

	var chk *checker
	if cfg.Check {
		chk = newChecker(n)
	}

	// Devirtualize uniform traffic: one compiled draw (exactly
	// Uniform.Next's values and PRNG stream) per core per cycle.
	uni, uniOK := cfg.Traffic.(traffic.Uniform)
	uniDraw := traffic.NewUniformDraw(uni, cfg.Load)
	fs := cfg.Faults
	F := int64(cfg.PacketFlits)
	nodes := len(n.ports) / n.radix

	var injected, delivered, dropped, flits int64
	total := cfg.Warmup + cfg.Measure
	for cycle := int64(0); cycle < total; cycle++ {
		if cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("fabric: run cancelled at cycle %d: %w", cycle, cfg.Ctx.Err())
		}
		measuring := cycle >= cfg.Warmup
		n.now = cycle

		// 1. Advance active transmissions; completions deliver locally
		// or arrive on the linked neighbour input, consuming the credit
		// reserved at grant time. Resources release only after this
		// cycle's arbitration, matching the priority-bus reuse. The
		// active set is walked in ascending port order, the order of
		// the per-router, per-input reference loop.
		n.rel = n.rel[:0]
		for w, word := range n.active {
			for ; word != 0; word &= word - 1 {
				gp := w<<6 | bits.TrailingZeros64(word)
				p := &n.ports[gp]
				if p.finish != cycle {
					continue
				}
				p.active = false
				n.active[w] &^= 1 << (gp & 63)
				n.rel = append(n.rel, int32(gp))
				pkt := n.popVC(gp, int(p.connVC))
				n.inNet--
				pkt.hops++
				ni := int(p.node)
				if p.occ != 0 {
					in := gp - ni*n.radix
					n.ready[ni*n.words+in>>6] |= 1 << (in & 63)
				}
				out := int(p.connOut)
				if metricsOn && out >= n.conc {
					n.linkBusyCounter(ni, out).Add(F + 1)
				}
				if out < n.conc {
					lat := cycle - pkt.birth
					if measuring {
						n.hist.Observe(float64(lat))
						n.hops.Add(float64(pkt.hops))
						delivered++
						flits += F
					}
					n.delivTotal++
					n.lastActivity = cycle
					if obsOn {
						n.mDelivered.Inc()
						n.mFlits.Add(F)
						n.mLatency.Observe(float64(lat))
						if metricsOn {
							n.hopHistFor(int(pkt.hops)).Observe(float64(lat))
						}
						n.rec.Record(cycle, obs.EvEject, int(pkt.dest), int(pkt.dest), int(lat))
					}
					continue
				}
				dp := n.rt.down[ni*n.radix+out]
				pkt.class = p.downClass
				if pkt.phase == 0 && n.rt.viaOf[n.ports[dp].node] == int(pkt.via) {
					pkt.phase = 1
				}
				n.pushVC(dp, int(p.downVC), pkt)
				n.vcb[dp*n.vcs+int(p.downVC)].resv--
				n.inNet++
			}
		}

		// 2. Build requests from the ready inputs (see network.ready),
		// in ascending input order per router.
		for ni := 0; ni < nodes; ni++ {
			ready := n.ready[ni*n.words : (ni+1)*n.words]
			if n.kern != nil && n.words == 1 && ready[0] == 0 {
				continue // no request, so no grant: nothing to arbitrate
			}
			if fs != nil && fs.RouterFailed(ni) {
				continue // fail-stop: the router arbitrates nothing
			}
			pid := ni * n.radix
			n.reqd = n.reqd[:0]
			for w, word := range ready {
				for ; word != 0; word &= word - 1 {
					in := w<<6 | bits.TrailingZeros64(word)
					gp := pid + in
					if n.ports[gp].active || n.ports[gp].occ == 0 {
						// Woken by a credit after it connected, or woken
						// with nothing left to send.
						ready[w] &^= 1 << (in & 63)
						continue
					}
					n.request(ni, in, gp)
				}
			}

			// 3. Arbitrate and start new connections; link grants
			// reserve the downstream credit for the whole flight.
			var grants []topo.Grant
			if n.kern != nil {
				if len(n.reqd) == 0 {
					continue
				}
				n.grants = n.kern[ni].Arbitrate(n.grants[:0])
				grants = n.grants
			} else {
				grants = n.sws[ni].Arbitrate(n.req[pid : pid+n.radix])
			}
			for _, g := range grants {
				if chk != nil {
					if err := chk.checkGrant(cycle, ni, g.In, g.Out); err != nil {
						return Result{}, err
					}
				}
				gp := pid + g.In
				p := &n.ports[gp]
				p.active = true
				p.finish = cycle + F
				n.active[gp>>6] |= 1 << (gp & 63)
				n.ready[ni*n.words+g.In>>6] &^= 1 << (g.In & 63)
				if g.Out >= n.conc {
					// The reserved credit may have been the downstream
					// VC's last: mirror that at this output.
					u, dvc := pid+g.Out, int(p.downVC)
					slot := n.rt.down[u]*n.vcs + dvc
					b := &n.vcb[slot]
					if b.resv++; int(b.n+b.resv) >= n.bufs {
						n.ports[u].free &^= 1 << dvc
					}
				}
				n.lastActivity = cycle
				if obsOn {
					n.mWins.Inc()
					n.rec.Record(cycle, obs.EvArbWin, gp, pid+g.Out, cfg.PacketFlits)
				}
			}
			for _, in := range n.reqd {
				gp := pid + int(in)
				if obsOn && !n.ports[gp].active {
					n.mLosses.Inc()
					n.rec.Record(cycle, obs.EvArbLose, gp, pid+n.req[gp], 0)
				}
				n.req[gp] = -1
			}
		}

		// 4. Release the connections that finished this cycle.
		for _, gp := range n.rel {
			ni := int(n.ports[gp].node)
			in := int(gp) - ni*n.radix
			if n.kern != nil {
				// The input may already have requested anew this cycle,
				// so the kernel names the output that frees.
				n.wake(ni*n.radix + n.kern[ni].Release(in))
			} else {
				n.sws[ni].Release(in)
			}
		}

		// 5. Inject new packets and refill the class-0 VC band from the
		// source queues.
		for core := range n.src {
			if fs != nil && fs.RouterFailed(core/n.conc) {
				continue // cores behind a failed router cannot inject
			}
			s := &n.src[core]
			var dest int
			var okInj bool
			if uniOK {
				dest, okInj = uniDraw.Next(&s.rng)
			} else {
				dest, okInj = cfg.Traffic.Next(core, cycle, cfg.Load, &s.rng)
			}
			if okInj {
				if s.q.full() {
					if measuring {
						dropped++
					}
					if obsOn {
						n.mDropped.Inc()
						n.rec.Record(cycle, obs.EvDrop, core, dest, 0)
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
					n.injTotal++
					if measuring {
						injected++
					}
					if obsOn {
						n.mInjected.Inc()
						n.rec.Record(cycle, obs.EvInject, core, dest, 0)
					}
				}
			}
			// Ascending non-full VCs of the band, one packet each.
			for band := n.bandMask[0] &^ n.ports[s.gp].full; band != 0 && s.q.n > 0; band &= band - 1 {
				v := bits.TrailingZeros64(band)
				p := s.q.pop()
				n.pushVC(s.gp, v, p)
				n.inNet++
				if obsOn {
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
		n.hopHist[hops] = n.cfg.Obs.Histogram(fmt.Sprintf("fabric.latency.hops=%02d", hops), 4, obs.MaxLatencyBins)
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
