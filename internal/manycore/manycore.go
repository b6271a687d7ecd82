// Package manycore is the trace-driven many-core system simulator used
// for the paper's application results (§VI-D, Table VI): 64 two-wide
// out-of-order cores with private L1s, a banked shared L2, and 8 on-chip
// memory controllers (Table III), all connected by a single radix-64
// switch — either the 2D Swizzle-Switch or Hi-Rise.
//
// Each switch port serves one tile: a core, an L2 bank, and (on every
// eighth tile) a memory controller share the port's injection queue.
// Cores execute synthetic MPKI-calibrated instruction streams
// (internal/trace); L1 misses become request packets to an
// address-hashed L2 bank, L2 misses continue to the bank's memory
// controller. The switch runs in its own clock domain: a fractional
// accumulator advances it at SwitchGHz/CoreGHz switch cycles per core
// cycle, which is how a faster Hi-Rise clock turns into system speedup.
package manycore

import (
	"context"
	"fmt"
	"sync"

	"github.com/reprolab/hirise/internal/cache"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/trace"
)

// Config holds the system parameters (defaults follow paper Table III).
type Config struct {
	// Cores is the tile count; it must equal the switch radix.
	Cores int
	// CoreGHz and SwitchGHz set the two clock domains.
	CoreGHz, SwitchGHz float64
	// IssueWidth is instructions per core cycle (2-way).
	IssueWidth int
	// MaxOutstanding bounds in-flight misses per core (Table III: up to
	// 16 outstanding requests per core).
	MaxOutstanding int
	// DepFraction is the fraction of misses the out-of-order window
	// cannot hide; the core stalls until such a miss returns.
	DepFraction float64
	// L2HitCycles is the bank access latency in core cycles.
	L2HitCycles int
	// MemCycles is the memory access latency in core cycles (80 ns at
	// 2 GHz = 160).
	MemCycles int
	// MCCount is the number of memory controllers.
	MCCount int
	// MCServiceCycles is the DDR occupancy per cache-line access in core
	// cycles: Table III gives each MC 4 channels at 16 GB/s = 32 B/cycle
	// at 2 GHz, i.e. one 64 B line every 2 cycles.
	MCServiceCycles int
	// PacketFlits is the network packet length (paper: 4 flits).
	PacketFlits int
	// Warmup and Measure are window lengths in core cycles.
	Warmup, Measure int64
	// Seed drives miss streams and address hashing.
	Seed uint64

	// AddressMode switches from MPKI-probabilistic miss generation to
	// fully address-driven execution: each core owns a real Table III L1
	// (tags, LRU, MSHRs) fed by a synthetic address stream sized to the
	// benchmark's catalog MPKI, and each tile's L2 bank keeps real tags.
	// Misses then emerge from cache state instead of coin flips.
	AddressMode bool
	// MemRefsPerInstr is the memory-reference density used by address
	// mode (default 0.3).
	MemRefsPerInstr float64
	// L1 and L2Bank override the Table III cache geometries in address
	// mode.
	L1, L2Bank cache.Config

	// Ctx, when non-nil, makes the system cancellable: New's cache
	// calibration and Run poll it every few thousand references or core
	// cycles and return its error. See sim.Config.Ctx.
	Ctx context.Context

	// Obs, when non-nil, attaches observability sinks (internal/obs) to
	// the system and its switch. Trace events are keyed by the switch
	// cycle (the network clock); metrics cover the entire run including
	// warmup. Results are unaffected. See sim.Config.Obs.
	Obs *obs.Observer
}

// Defaults fills unset fields with Table III values.
func (c *Config) Defaults() {
	if c.Cores == 0 {
		c.Cores = 64
	}
	if c.CoreGHz == 0 {
		c.CoreGHz = 2.0
	}
	if c.SwitchGHz == 0 {
		c.SwitchGHz = 2.0
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 2
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 16
	}
	if c.DepFraction == 0 {
		c.DepFraction = 0.25
	}
	if c.L2HitCycles == 0 {
		c.L2HitCycles = 6
	}
	if c.MemCycles == 0 {
		c.MemCycles = 160
	}
	if c.MCCount == 0 {
		c.MCCount = 8
	}
	if c.MCServiceCycles == 0 {
		c.MCServiceCycles = 2
	}
	if c.MemRefsPerInstr == 0 {
		c.MemRefsPerInstr = 0.3
	}
	if c.L1 == (cache.Config{}) {
		c.L1 = cache.L1D()
	}
	if c.L2Bank == (cache.Config{}) {
		c.L2Bank = cache.L2Bank()
	}
	if c.PacketFlits == 0 {
		c.PacketFlits = 4
	}
	if c.Warmup == 0 {
		c.Warmup = 20000
	}
	if c.Measure == 0 {
		c.Measure = 100000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate(radix, benches int) error {
	switch {
	case c.Cores != radix:
		return fmt.Errorf("manycore: %d cores but switch radix %d", c.Cores, radix)
	case benches != c.Cores:
		return fmt.Errorf("manycore: %d benchmark assignments for %d cores", benches, c.Cores)
	case c.Cores%c.MCCount != 0:
		return fmt.Errorf("manycore: %d cores not divisible by %d MCs", c.Cores, c.MCCount)
	case c.SwitchGHz <= 0 || c.CoreGHz <= 0:
		return fmt.Errorf("manycore: non-positive clock")
	}
	return nil
}

// Result reports one system run.
type Result struct {
	// PerCoreIPC is instructions retired per core cycle, per core.
	PerCoreIPC []float64
	// SystemIPC is the sum over cores.
	SystemIPC float64
	// AvgNetLatency is the mean one-way network latency of delivered
	// packets, in switch cycles (queueing included).
	AvgNetLatency float64
	// NetPackets counts packets delivered during measurement.
	NetPackets int64
	// MemAccesses counts memory-controller accesses during measurement.
	MemAccesses int64
	// AvgL1MPKI is the whole-run measured L1 MPKI averaged over cores
	// (address mode only; zero otherwise).
	AvgL1MPKI float64
}

type msgKind int

const (
	reqL2 msgKind = iota
	respL2
	reqMem
	respMem
)

type message struct {
	kind     msgKind
	dst      int
	core     int    // originating core
	bank     int    // serving bank (for memory round trips)
	critical bool   // core is stalled on this miss
	block    uint64 // block address (address mode)
	born     int64
}

type tile struct {
	// Network port state.
	outQ      []message
	sending   bool
	sendFlits int
	sendMsg   message
	// Core state.
	bench       trace.Benchmark
	miss        *trace.MissStream
	rng         *prng.Source
	outstanding int
	blocked     int // outstanding critical misses
	retired     int64
	issuedAll   int64 // instructions including warmup
	missSnap    int64 // L1 misses at measurement start (address mode)
	issueSnap   int64 // instructions at measurement start
	// Address-mode state: real caches and MSHRs.
	l1   *cache.Cache
	mshr *cache.MSHRFile
	prof cache.Profile
	l2   *cache.Cache
	// Entity delay queues (FIFO; bank access is fixed-latency, the MC
	// additionally serializes on DDR bandwidth).
	bankQ      []delayed
	memQ       []delayed
	mcNextFree int64 // earliest core cycle this tile's DDR channels accept work
}

type delayed struct {
	ready int64
	msg   message
}

// System is one configured instance, reusable for a single Run.
type System struct {
	cfg   Config
	sw    sim.Switch
	tiles []*tile
	req   []int
	acc   float64
	// Measurement.
	measuring  bool
	netLat     stats.Summary
	netPackets int64
	memAccess  int64
	swCycle    int64
	// Observability handles (nil when Config.Obs is nil; methods no-op
	// on nil receivers, so the disabled path never allocates).
	rec        *obs.Recorder
	mInjected  *obs.Counter
	mDelivered *obs.Counter
	mWins      *obs.Counter
	mMem       *obs.Counter
	mNetLat    *obs.Histogram
}

// New builds a system over the given switch with the given per-core
// benchmark assignment (from trace.Mix.Assign).
func New(cfg Config, sw sim.Switch, benches []trace.Benchmark) (*System, error) {
	cfg.Defaults()
	if err := cfg.validate(sw.Radix(), len(benches)); err != nil {
		return nil, err
	}
	root := prng.New(cfg.Seed)
	s := &System{cfg: cfg, sw: sw, tiles: make([]*tile, cfg.Cores), req: make([]int, cfg.Cores)}
	if cfg.Obs != nil {
		if osw, ok := sw.(interface{ SetObserver(*obs.Observer) }); ok {
			osw.SetObserver(cfg.Obs)
		}
	}
	s.rec = cfg.Obs.Rec()
	s.mInjected = cfg.Obs.Counter("manycore.packets.injected")
	s.mDelivered = cfg.Obs.Counter("manycore.packets.delivered")
	s.mWins = cfg.Obs.Counter("manycore.arb.wins")
	s.mMem = cfg.Obs.Counter("manycore.mem_accesses")
	s.mNetLat = cfg.Obs.Histogram("manycore.net_latency.cycles", 4, 4096)
	// Calibrate one address profile per distinct benchmark (shared by
	// its instances, memoized across systems — calibration is pure given
	// the benchmark, cache geometry, and density).
	profiles := map[string]cache.Profile{}
	if cfg.AddressMode {
		for _, b := range benches {
			if _, done := profiles[b.Name]; done {
				continue
			}
			target := b.NetMPKI / 1000 / cfg.MemRefsPerInstr
			if target > 0.99 {
				target = 0.99
			}
			key := profileKey{name: b.Name, l1: cfg.L1, target: target, ratio: b.L2MissRatio}
			if v, ok := profileMemo.Load(key); ok {
				profiles[b.Name] = v.(cache.Profile)
				continue
			}
			p, err := cache.CalibrateProfile(cfg.Ctx, target, b.L2MissRatio, cfg.L1, 1)
			if err != nil {
				return nil, err
			}
			profileMemo.Store(key, p)
			profiles[b.Name] = p
		}
	}
	for i := range s.tiles {
		t := &tile{
			bench: benches[i],
			miss:  trace.NewMissStream(benches[i]),
			rng:   root.Split(),
		}
		if cfg.AddressMode {
			l1, err := cache.New(cfg.L1)
			if err != nil {
				return nil, err
			}
			l2, err := cache.New(cfg.L2Bank)
			if err != nil {
				return nil, err
			}
			t.l1 = l1
			t.l2 = l2
			t.mshr = cache.NewMSHRFile(cfg.MaxOutstanding)
			t.prof = profiles[benches[i].Name]
		}
		s.tiles[i] = t
	}
	if cfg.AddressMode {
		s.prewarm()
	}
	return s, nil
}

// profileKey identifies one calibrated address profile.
type profileKey struct {
	name   string
	l1     cache.Config
	target float64
	ratio  float64
}

// profileMemo caches calibration results process-wide; calibration uses
// a fixed internal seed, so entries are deterministic.
var profileMemo sync.Map

// bankLocalAddr maps an address to the bank-local block used to index a
// bank's tag array: the 6 bank-interleave bits are stripped and the
// remaining block id passes through an invertible hash, so small
// contiguous per-core working sets spread over all of the bank's sets
// instead of aliasing (hashed cache indexing, standard for shared LLCs).
func bankLocalAddr(a uint64) uint64 {
	z := a >> 12
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z << 6
}

// prewarm loads every core's resident working set into its L1 and the
// shared L2 banks before simulation, so measurement starts from steady
// state rather than from an all-cores-cold compulsory-miss storm the
// probabilistic mode has no analogue for.
func (s *System) prewarm() {
	for id, t := range s.tiles {
		offset := uint64(id+1) << 42
		span := t.prof.WorkingSetBytes
		for addr := uint64(0); addr < span; addr += 64 {
			a := addr + offset
			bank := int((a >> 6) % uint64(s.cfg.Cores))
			s.tiles[bank].l2.Access(bankLocalAddr(a), false)
			t.l1.Access(a, false)
		}
	}
}

// mcPort returns the memory-controller port serving the given bank.
func (s *System) mcPort(bank int) int {
	region := s.cfg.Cores / s.cfg.MCCount
	return (bank / region) * region
}

// ctxCheckInterval is how often, in core cycles, a cancellable Run
// polls its context: a 64-core cycle is a few microseconds, so a
// cancelled run stops within milliseconds at no measurable cost.
const ctxCheckInterval = 1024

// Run executes the configured windows and returns measurements, or the
// context's error if Config.Ctx is cancelled first.
func (s *System) Run() (Result, error) {
	total := s.cfg.Warmup + s.cfg.Measure
	ratio := s.cfg.SwitchGHz / s.cfg.CoreGHz
	for cycle := int64(0); cycle < total; cycle++ {
		if s.cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && s.cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("manycore: run cancelled at cycle %d: %w", cycle, s.cfg.Ctx.Err())
		}
		if !s.measuring && cycle >= s.cfg.Warmup {
			for _, t := range s.tiles {
				if t.l1 != nil {
					t.missSnap = t.l1.Stats().Misses
					t.issueSnap = t.issuedAll
				}
			}
		}
		s.measuring = cycle >= s.cfg.Warmup
		// Switch domain: possibly several (or zero) switch cycles per
		// core cycle.
		s.acc += ratio
		for s.acc >= 1 {
			s.acc--
			s.switchCycle(cycle)
		}
		// Core domain.
		for id, t := range s.tiles {
			s.drainDelayQueues(t, cycle)
			s.issue(id, t, cycle)
		}
	}
	res := Result{
		PerCoreIPC:    make([]float64, s.cfg.Cores),
		AvgNetLatency: s.netLat.Mean(),
		NetPackets:    s.netPackets,
		MemAccesses:   s.memAccess,
	}
	for i, t := range s.tiles {
		res.PerCoreIPC[i] = float64(t.retired) / float64(s.cfg.Measure)
		res.SystemIPC += res.PerCoreIPC[i]
		if s.cfg.AddressMode && t.issuedAll > t.issueSnap {
			misses := t.l1.Stats().Misses - t.missSnap
			instr := t.issuedAll - t.issueSnap
			res.AvgL1MPKI += float64(misses) / float64(instr) * 1000 / float64(s.cfg.Cores)
		}
	}
	return res, nil
}

// switchCycle runs one arbitration + flit cycle of the interconnect.
func (s *System) switchCycle(coreCycle int64) {
	s.swCycle++
	// Advance active transmissions; completions deliver after this
	// cycle's arbitration (output buses cannot arbitrate while busy).
	done := make([]int, 0, 8)
	for id, t := range s.tiles {
		if !t.sending {
			continue
		}
		t.sendFlits--
		if t.sendFlits == 0 {
			done = append(done, id)
		}
	}
	for id, t := range s.tiles {
		s.req[id] = -1
		if t.sending || len(t.outQ) == 0 {
			continue
		}
		s.req[id] = t.outQ[0].dst
	}
	for _, g := range s.sw.Arbitrate(s.req) {
		t := s.tiles[g.In]
		t.sending = true
		t.sendMsg = t.outQ[0]
		t.outQ = t.outQ[1:]
		t.sendFlits = s.cfg.PacketFlits
		s.mWins.Inc()
		s.rec.Record(s.swCycle, obs.EvArbWin, g.In, g.Out, s.cfg.PacketFlits)
	}
	for _, id := range done {
		t := s.tiles[id]
		t.sending = false
		s.sw.Release(id)
		lat := s.swCycle - t.sendMsg.born
		if s.measuring {
			s.netLat.Add(float64(lat))
			s.netPackets++
		}
		s.mDelivered.Inc()
		s.mNetLat.Observe(float64(lat))
		s.rec.Record(s.swCycle, obs.EvEject, id, t.sendMsg.dst, int(lat))
		s.deliver(t.sendMsg, coreCycle)
	}
}

// deliver hands a network packet to the destination tile's entity.
func (s *System) deliver(m message, coreCycle int64) {
	dst := s.tiles[m.dst]
	switch m.kind {
	case reqL2:
		dst.bankQ = append(dst.bankQ, delayed{ready: coreCycle + int64(s.cfg.L2HitCycles), msg: m})
	case reqMem:
		// The DDR channels serialize: a line occupies the controller for
		// MCServiceCycles, and the access completes MemCycles after its
		// service slot starts.
		start := coreCycle
		if dst.mcNextFree > start {
			start = dst.mcNextFree
		}
		dst.mcNextFree = start + int64(s.cfg.MCServiceCycles)
		dst.memQ = append(dst.memQ, delayed{ready: start + int64(s.cfg.MemCycles), msg: m})
		if s.measuring {
			s.memAccess++
		}
		s.mMem.Inc()
	case respMem:
		// Fill the bank, then forward to the core.
		dst.bankQ = append(dst.bankQ, delayed{ready: coreCycle + int64(s.cfg.L2HitCycles), msg: m})
	case respL2:
		core := s.tiles[m.dst]
		if s.cfg.AddressMode {
			core.mshr.Fill(m.block)
		} else {
			core.outstanding--
		}
		if m.critical {
			core.blocked--
		}
	}
}

// drainDelayQueues moves matured bank/MC work onto the network.
func (s *System) drainDelayQueues(t *tile, coreCycle int64) {
	for len(t.bankQ) > 0 && t.bankQ[0].ready <= coreCycle {
		d := t.bankQ[0]
		t.bankQ = t.bankQ[1:]
		switch d.msg.kind {
		case reqL2:
			// L2 lookup done: hit answers the core, miss goes to memory.
			l2Miss := false
			if s.cfg.AddressMode {
				l2Miss = !t.l2.Access(bankLocalAddr(d.msg.block), false).Hit
			} else {
				l2Miss = t.rng.Float64() < s.tiles[d.msg.core].bench.L2MissRatio
			}
			if l2Miss {
				s.send(message{kind: reqMem, dst: s.mcPort(d.msg.bank), core: d.msg.core,
					bank: d.msg.bank, critical: d.msg.critical, block: d.msg.block})
			} else {
				s.send(message{kind: respL2, dst: d.msg.core, core: d.msg.core,
					bank: d.msg.bank, critical: d.msg.critical, block: d.msg.block})
			}
		case respMem:
			s.send(message{kind: respL2, dst: d.msg.core, core: d.msg.core,
				bank: d.msg.bank, critical: d.msg.critical, block: d.msg.block})
		}
	}
	for len(t.memQ) > 0 && t.memQ[0].ready <= coreCycle {
		d := t.memQ[0]
		t.memQ = t.memQ[1:]
		s.send(message{kind: respMem, dst: d.msg.bank, core: d.msg.core,
			bank: d.msg.bank, critical: d.msg.critical, block: d.msg.block})
	}
}

// send enqueues a packet at its source tile's network port.
func (s *System) send(m message) {
	src := sourcePort(m, s)
	m.born = s.swCycle
	s.tiles[src].outQ = append(s.tiles[src].outQ, m)
	s.mInjected.Inc()
	s.rec.Record(s.swCycle, obs.EvInject, src, m.dst, 0)
}

// sourcePort returns the tile injecting the message.
func sourcePort(m message, s *System) int {
	switch m.kind {
	case reqL2:
		return m.core
	case respL2, reqMem:
		return m.bank
	default: // respMem
		return s.mcPort(m.bank)
	}
}

// issue runs one core cycle of instruction issue.
func (s *System) issue(id int, t *tile, coreCycle int64) {
	if t.blocked > 0 {
		return // stalled on a dependence-critical miss
	}
	for k := 0; k < s.cfg.IssueWidth; k++ {
		if s.cfg.AddressMode {
			if !s.issueAddrInstr(id, t) {
				return
			}
		} else if t.miss.Miss(t.rng) {
			if t.outstanding >= s.cfg.MaxOutstanding {
				return // MSHRs full: structural stall, instruction not issued
			}
			t.outstanding++
			critical := t.rng.Float64() < s.cfg.DepFraction
			if critical {
				t.blocked++
			}
			bank := t.rng.Intn(s.cfg.Cores)
			s.send(message{kind: reqL2, dst: bank, core: id, bank: bank, critical: critical})
		}
		t.issuedAll++
		if s.measuring {
			t.retired++
		}
		if t.blocked > 0 {
			return // the miss we just issued blocks younger instructions
		}
	}
}

// issueAddrInstr executes one instruction in address mode: a possible
// memory reference against the core's real L1. It reports false when a
// structural stall (full MSHR file) prevents the instruction from
// issuing.
func (s *System) issueAddrInstr(id int, t *tile) bool {
	if !t.rng.Bernoulli(s.cfg.MemRefsPerInstr) {
		return true
	}
	// Per-core address offset keeps heaps private across cores.
	addr := t.prof.Next(t.rng) + uint64(id+1)<<42
	if t.l1.Access(addr, false).Hit {
		return true
	}
	block := t.l1.Block(addr)
	primary, ok := t.mshr.Allocate(block)
	if !ok {
		return false // MSHR file full: stall
	}
	if !primary {
		return true // merged into an outstanding miss; no new request
	}
	critical := t.rng.Float64() < s.cfg.DepFraction
	if critical {
		t.blocked++
	}
	bank := int((block >> 6) % uint64(s.cfg.Cores))
	s.send(message{kind: reqL2, dst: bank, core: id, bank: bank, critical: critical, block: block})
	return true
}
