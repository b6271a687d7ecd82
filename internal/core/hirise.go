// Package core implements the Hi-Rise 3D hierarchical switch (paper
// §III): per layer, a local switch connecting the layer's inputs to its
// intermediate outputs and to dedicated layer-to-layer channels (L2LCs),
// and an inter-layer switch of per-output sub-blocks choosing between the
// incoming L2LCs and the local intermediate output.
//
// Arbitration is two-phase but single-cycle (paper Fig 8): phase 1 runs
// every local switch, phase 2 every inter-layer sub-block. The local
// switch's LRG priority is updated only when its winner also wins the
// final output — the update is back-propagated — which guarantees a
// losing request keeps rising at the inter-layer switch and never
// starves. The sub-blocks arbitrate with the configured scheme:
// baseline L-2-L LRG, Weighted LRG, or the paper's Class-based LRG.
//
// topo.ISLIP1 selects the paper's §VII iSLIP-1 *analog*: round-robin
// pointers (arb.RoundRobin) at both stages of this same hierarchical
// structure, the first stage's pointer advancing only on a final-stage
// grant via the back-propagated Update. It is a related-work comparison
// point, not the real algorithm — canonical accept-gated multi-iteration
// iSLIP on virtual output queues lives in internal/sched and runs under
// sim.RunVOQ; core.New rejects those VOQ-only schemes (topo.ISLIP,
// topo.Wavefront, topo.MWM) via Config.Validate.
//
// Like the 2D Swizzle-Switch, the model is connection-oriented: a granted
// connection occupies its input, its final output, and (for cross-layer
// traffic) its L2LC until the caller releases it after the packet's last
// flit; occupied resources do not arbitrate.
package core

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/topo"
)

// Switch is one Hi-Rise switch instance.
type Switch struct {
	cfg   topo.Config
	ports int // inputs (= outputs) per layer

	interArb []arb.BitArbiter // per final output: the intermediate-output port arbiter (over local inputs)
	chArb    []arb.BitArbiter // per L2LC: the local-switch channel port arbiter (over local inputs)
	subs     []subBlock       // per final output: inter-layer sub-block arbiter

	heldOut  []int  // per input: final output held, or -1
	heldCh   []int  // per input: L2LC held, or -1
	outIn    []int  // per output: holding input, or -1
	chBusy   []bool // per L2LC
	chFailed []bool // per L2LC: out of service (TSV fault); see FailChannel

	// Runtime port-fault state. inFailed masks the failed local inputs
	// of each layer, outFailed the failed final outputs; both are
	// lazily allocated by ensurePortFaults and applied to the request
	// vectors with word-parallel AndNot. portFaults gates every
	// fault-path branch in Arbitrate, so with no port failed the hot
	// loop is bit-identical to the fault-free build.
	inFailed   []bitvec.Vec // per layer: failed local inputs
	outFailed  bitvec.Vec   // failed final outputs
	portFaults bool

	chGrants  []int64 // per L2LC: connections carried (diagnostics)
	outGrants []int64 // per output: connections formed
	localPath int64   // same-layer connections (no L2LC)

	// Observability (nil when disabled; see SetObserver).
	rec    *obs.Recorder
	audit  *obs.FairnessAudit // phase-2 audit for the non-CLRG schemes
	cycles int64              // Arbitrate calls, the switch-local cycle count

	// Geometry lookup tables, precomputed at construction. The topo
	// helpers divide by PortsPerLayer on every call; the hot loop
	// resolves layer, local index, and channel ids by indexing instead.
	layerOf  []int // per global port: owning layer
	localIdx []int // per global port: index within its layer
	localMod []int // per global port: LocalIndex % Channels (binned channel choice)
	cidBase  []int // per src*Layers+dst: first L2LC id of the group
	cidLine  []int // per L2LC id: sub-block line index on its destination layer
	cidSrc   []int // per L2LC id: source layer

	// Scratch buffers, reused every cycle. The request masks are
	// word-parallel bitsets (internal/bitvec): clearing and granting
	// cost one machine-word operation per 64 local inputs, mirroring
	// the bit-parallel priority lines of the hardware arbiter.
	grants     []topo.Grant // Arbitrate's return buffer, valid until the next call
	intermReq  []bitvec.Vec // per output: local-input request mask
	chReq      []bitvec.Vec // per L2LC: local-input request mask
	destReq    []bitvec.Vec // per (layer, dest layer): mask for priority-based allocation
	intermWin  []int        // per output: local winner (local index), -1 if none
	chWin      []int        // per L2LC: local winner (local index), -1 if none
	chWeight   []int        // per L2LC: requestor count this cycle (WLRG)
	outLineReq []bitvec.Vec // per output: sub-block line request mask
	lineInput  []int        // per output*lines+line: requesting global input
	lineWeight []int
	lineCh     []int // global L2LC id per line, -1 for the intermediate line
}

type subBlock struct {
	scheme topo.Scheme
	plain  arb.BitArbiter // L-2-L LRG baseline or the iSLIP-1 round-robin analog
	wlrg   *arb.WLRG
	clrg   *arb.CLRG
}

// Validate reports whether New would accept cfg, without building
// anything: the topology checks plus Hi-Rise's at-least-two-layers rule.
func Validate(cfg topo.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Layers < 2 {
		return fmt.Errorf("core: Hi-Rise needs at least 2 layers, have %d (use crossbar.New for 2D)", cfg.Layers)
	}
	return nil
}

// New returns a Hi-Rise switch for the given configuration.
func New(cfg topo.Config) (*Switch, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	n, ports := cfg.Radix, cfg.PortsPerLayer()
	lines := cfg.SubBlockInputs()

	s := &Switch{
		cfg:        cfg,
		ports:      ports,
		interArb:   make([]arb.BitArbiter, n),
		chArb:      make([]arb.BitArbiter, cfg.NumL2LC()),
		subs:       make([]subBlock, n),
		heldOut:    make([]int, n),
		heldCh:     make([]int, n),
		outIn:      make([]int, n),
		chBusy:     make([]bool, cfg.NumL2LC()),
		chFailed:   make([]bool, cfg.NumL2LC()),
		chGrants:   make([]int64, cfg.NumL2LC()),
		outGrants:  make([]int64, n),
		intermReq:  make([]bitvec.Vec, n),
		chReq:      make([]bitvec.Vec, cfg.NumL2LC()),
		destReq:    make([]bitvec.Vec, cfg.Layers*cfg.Layers),
		intermWin:  make([]int, n),
		chWin:      make([]int, cfg.NumL2LC()),
		chWeight:   make([]int, cfg.NumL2LC()),
		outLineReq: make([]bitvec.Vec, n),
		lineInput:  make([]int, n*lines),
		lineWeight: make([]int, n*lines),
		lineCh:     make([]int, n*lines),
		layerOf:    make([]int, n),
		localIdx:   make([]int, n),
		localMod:   make([]int, n),
		cidBase:    make([]int, cfg.Layers*cfg.Layers),
		cidLine:    make([]int, cfg.NumL2LC()),
		cidSrc:     make([]int, cfg.NumL2LC()),
	}
	for p := 0; p < n; p++ {
		s.layerOf[p] = cfg.LayerOf(p)
		s.localIdx[p] = cfg.LocalIndex(p)
		s.localMod[p] = cfg.LocalIndex(p) % cfg.Channels
	}
	for l := 0; l < cfg.Layers; l++ {
		for d := 0; d < cfg.Layers; d++ {
			if d == l {
				continue
			}
			s.cidBase[l*cfg.Layers+d] = cfg.L2LCID(l, d, 0)
			for ch := 0; ch < cfg.Channels; ch++ {
				cid := cfg.L2LCID(l, d, ch)
				s.cidLine[cid] = s.lineFor(d, l, ch)
				s.cidSrc[cid] = l
			}
		}
	}
	// The iSLIP-1 analog swaps the LRG priority vectors for round-robin
	// pointers at both stages. Accept-gating happens structurally: Update
	// on these arbiters runs only during grant back-propagation, i.e.
	// only for winners whose final connection forms (see arb.RoundRobin's
	// pointer-semantics audit comment).
	newLocal := func() arb.BitArbiter {
		if cfg.Scheme == topo.ISLIP1 {
			return arb.NewRoundRobin(ports)
		}
		return arb.NewLRG(ports)
	}
	for o := range s.interArb {
		s.interArb[o] = newLocal()
		s.intermReq[o] = bitvec.New(ports)
		s.outLineReq[o] = bitvec.New(lines)
		s.subs[o] = newSubBlock(cfg, lines)
		s.heldOut[o] = -1
		s.heldCh[o] = -1
		s.outIn[o] = -1
	}
	for c := range s.chArb {
		s.chArb[c] = newLocal()
		s.chReq[c] = bitvec.New(ports)
	}
	for d := range s.destReq {
		s.destReq[d] = bitvec.New(ports)
	}
	return s, nil
}

func newSubBlock(cfg topo.Config, lines int) subBlock {
	sb := subBlock{scheme: cfg.Scheme}
	switch cfg.Scheme {
	case topo.WLRG:
		sb.wlrg = arb.NewWLRG(lines)
	case topo.CLRG:
		sb.clrg = arb.NewCLRG(lines, cfg.Radix, cfg.Classes)
	case topo.ISLIP1:
		sb.plain = arb.NewRoundRobin(lines)
	default: // LRG on a hierarchical switch is the baseline L-2-L LRG
		sb.plain = arb.NewLRG(lines)
	}
	return sb
}

// Radix returns the total port count.
func (s *Switch) Radix() int { return s.cfg.Radix }

// SetObserver attaches observability sinks (internal/obs). The
// observer's fairness audit receives one observation per contending
// line per inter-layer sub-block round — routed through arb.CLRG for
// the CLRG scheme (so observations carry the input's priority class)
// and recorded here for the class-less schemes — and the observer's
// trace recorder receives an EvL2LC event for every connection formed
// across a layer-to-layer channel, keyed by this switch's own
// arbitration-cycle counter (Arbitrate is called exactly once per
// simulated cycle, so the two clocks agree). Passing nil detaches and
// restores the allocation-free disabled path.
func (s *Switch) SetObserver(o *obs.Observer) {
	s.rec = o.Rec()
	audit := o.Audit()
	if s.cfg.Scheme == topo.CLRG {
		// Class-aware observations come from inside the CLRG arbiters.
		s.audit = nil
		for i := range s.subs {
			s.subs[i].clrg.SetAudit(audit)
		}
		return
	}
	s.audit = audit
}

// Config returns the switch configuration.
func (s *Switch) Config() topo.Config { return s.cfg }

// lineFor returns the sub-block line index on destination layer d for the
// channel (src, ch); lines order the c*(L-1) incoming L2LCs by ascending
// source layer then channel, with the local intermediate output last.
func (s *Switch) lineFor(d, src, ch int) int {
	sidx := src
	if src > d {
		sidx--
	}
	return sidx*s.cfg.Channels + ch
}

// Arbitrate runs one two-phase arbitration cycle. req[i] is the final
// output requested by input i, or -1. Inputs holding connections, busy
// outputs, and busy L2LCs do not participate. Returns the connections
// formed; each persists until Release. The returned slice is a scratch
// buffer reused by the next Arbitrate call, so callers must consume it
// before re-arbitrating (every simulator in this repository does).
func (s *Switch) Arbitrate(req []int) []topo.Grant {
	if len(req) != s.cfg.Radix {
		panic(fmt.Sprintf("core: request vector length %d, want %d", len(req), s.cfg.Radix))
	}
	cfg := s.cfg
	s.cycles++

	// Phase 1a: build local-switch request masks.
	for o := range s.intermReq {
		s.intermReq[o].Zero()
		s.outLineReq[o].Zero()
		s.intermWin[o] = -1
	}
	for c := range s.chReq {
		s.chReq[c].Zero()
		s.chWin[c] = -1
		s.chWeight[c] = 0
	}
	if cfg.Alloc == topo.PriorityBased {
		for d := range s.destReq {
			s.destReq[d].Zero()
		}
	}
	outputBinned := cfg.Alloc == topo.OutputBinned
	for in, o := range req {
		if o < 0 || s.heldOut[in] >= 0 || s.outIn[o] >= 0 {
			continue
		}
		if s.portFaults && s.outFailed.Get(o) {
			continue
		}
		l, li := s.layerOf[in], s.localIdx[in]
		d := s.layerOf[o]
		if d == l {
			s.intermReq[o].Set(li)
			continue
		}
		if cfg.Alloc == topo.PriorityBased {
			s.destReq[l*cfg.Layers+d].Set(li)
			continue
		}
		ch := s.localMod[in]
		if outputBinned {
			ch = s.localMod[o]
		}
		cid := s.cidBase[l*cfg.Layers+d] + ch
		if s.chFailed[cid] {
			cid = s.healthyChannel(l, d, ch)
			if cid < 0 {
				continue
			}
		}
		if !s.chBusy[cid] {
			s.chReq[cid].Set(li)
			s.chWeight[cid]++
		}
	}

	// Mask the failed inputs out of every request vector before any
	// arbiter sees them — one word-parallel AndNot per vector, and only
	// when a port fault is actually active.
	if s.portFaults {
		s.maskFailedInputs()
	}

	// Phase 1b: local-switch arbitration.
	for o := range s.intermReq {
		s.intermWin[o] = s.interArb[o].GrantBits(s.intermReq[o])
	}
	if cfg.Alloc == topo.PriorityBased {
		// Channels to a destination fill in priority order: each channel's
		// arbiter picks among the requestors the earlier channels left.
		for l := 0; l < cfg.Layers; l++ {
			for d := 0; d < cfg.Layers; d++ {
				if d == l {
					continue
				}
				remaining := s.destReq[l*cfg.Layers+d]
				left := remaining.Count()
				for ch := 0; ch < cfg.Channels && left > 0; ch++ {
					cid := cfg.L2LCID(l, d, ch)
					if s.chBusy[cid] || s.chFailed[cid] {
						continue
					}
					w := s.chArb[cid].GrantBits(remaining)
					if w < 0 {
						break
					}
					s.chWin[cid] = w
					s.chWeight[cid] = left
					remaining.Clear(w)
					left--
				}
			}
		}
	} else {
		for c := range s.chReq {
			s.chWin[c] = s.chArb[c].GrantBits(s.chReq[c])
		}
	}

	// Phase 2a: scatter channel winners to their target outputs'
	// sub-block request vectors. Each channel winner targets exactly one
	// output (the one its winning input requested), so this touches one
	// entry per L2LC instead of scanning every (output, source layer,
	// channel) triple; the per-output bitset is order-insensitive, so
	// the grants are identical to the output-major scan.
	grants := s.grants[:0]
	lines := cfg.SubBlockInputs()
	for cid, w := range s.chWin {
		if w < 0 {
			continue
		}
		gi := s.cidSrc[cid]*s.ports + w
		o := req[gi]
		line := s.cidLine[cid]
		s.outLineReq[o].Set(line)
		base := o * lines
		s.lineInput[base+line] = gi
		s.lineWeight[base+line] = s.chWeight[cid]
		s.lineCh[base+line] = cid
	}

	// Phase 2b: inter-layer sub-block arbitration per idle final output.
	for o := 0; o < cfg.Radix; o++ {
		if s.outIn[o] >= 0 {
			continue
		}
		if s.portFaults && s.outFailed.Get(o) {
			continue // defense in depth: the build loop already skipped it
		}
		lineReq := s.outLineReq[o]
		base := o * lines
		if w := s.intermWin[o]; w >= 0 {
			line := lines - 1
			lineReq.Set(line)
			s.lineInput[base+line] = s.layerOf[o]*s.ports + w
			s.lineWeight[base+line] = s.intermReq[o].Count()
			s.lineCh[base+line] = -1
		}
		if lineReq.None() {
			continue
		}
		lineInput := s.lineInput[base : base+lines]

		sb := &s.subs[o]
		var win int
		switch sb.scheme {
		case topo.WLRG:
			win = sb.wlrg.GrantBits(lineReq)
		case topo.CLRG:
			win = sb.clrg.GrantBits(lineReq, lineInput)
		default:
			win = sb.plain.GrantBits(lineReq)
		}
		if s.audit != nil {
			// Class-less schemes audit here, one observation per
			// contending line (CLRG audits inside arb.CLRG.Grant with
			// the real class; these report class 0).
			for w, word := range lineReq {
				for word != 0 {
					line := w<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					s.audit.Observe(lineInput[line], 0, line == win)
				}
			}
		}
		if win < 0 {
			continue
		}
		gi := lineInput[win]
		switch sb.scheme {
		case topo.WLRG:
			sb.wlrg.Update(win, s.lineWeight[base+win])
		case topo.CLRG:
			sb.clrg.Update(win, gi)
		default:
			sb.plain.Update(win)
		}

		// Back-propagate the local-switch priority update to the winner.
		if cid := s.lineCh[base+win]; cid >= 0 {
			s.chArb[cid].Update(s.localIdx[gi])
			s.chBusy[cid] = true
			s.heldCh[gi] = cid
			s.chGrants[cid]++
			if s.rec != nil {
				s.rec.Record(s.cycles-1, obs.EvL2LC, gi, o, cid)
			}
		} else {
			s.interArb[o].Update(s.localIdx[gi])
			s.localPath++
		}
		s.outGrants[o]++
		s.heldOut[gi] = o
		s.outIn[o] = gi
		grants = append(grants, topo.Grant{In: gi, Out: o})
	}
	s.grants = grants
	return grants
}

// Release frees the connection held by input in after its last flit. It
// is a no-op if in holds nothing.
func (s *Switch) Release(in int) {
	o := s.heldOut[in]
	if o < 0 {
		return
	}
	s.heldOut[in] = -1
	s.outIn[o] = -1
	if cid := s.heldCh[in]; cid >= 0 {
		s.chBusy[cid] = false
		s.heldCh[in] = -1
	}
}

// Holds returns the final output input in is connected to, or -1.
func (s *Switch) Holds(in int) int { return s.heldOut[in] }

// HeldChannel returns the L2LC input in's connection crosses, or -1 for
// no connection or a same-layer connection.
func (s *Switch) HeldChannel(in int) int { return s.heldCh[in] }

// OutputBusy reports whether final output out carries a connection.
func (s *Switch) OutputBusy(out int) bool { return s.outIn[out] >= 0 }

// ChannelBusy reports whether the given L2LC carries a connection.
func (s *Switch) ChannelBusy(cid int) bool { return s.chBusy[cid] }

// healthyChannel returns the L2LC for (src layer, dst layer) starting at
// the assigned channel and probing forward past failed channels, or -1
// if every channel of the pair is dead.
func (s *Switch) healthyChannel(src, dst, ch int) int {
	for k := 0; k < s.cfg.Channels; k++ {
		cid := s.cfg.L2LCID(src, dst, (ch+k)%s.cfg.Channels)
		if !s.chFailed[cid] {
			return cid
		}
	}
	return -1
}

// FailChannel removes an L2LC from service, modeling a faulty TSV
// bundle. Binned traffic assigned to the channel falls back to the next
// healthy channel toward the same layer; priority-based allocation
// simply skips it. Failing the last healthy channel between a layer
// pair is refused, since that would disconnect the pair.
//
// Failing a held (busy) channel is fail-stop, not fail-drop: the
// in-flight connection keeps the channel through Release and every one
// of its flits is delivered — chFailed only gates new arbitration, it
// never tears down an established connection. The channel leaves
// service the moment its current packet drains.
func (s *Switch) FailChannel(cid int) error {
	if cid < 0 || cid >= len(s.chFailed) {
		return fmt.Errorf("core: no such channel %d", cid)
	}
	if s.chFailed[cid] {
		return nil
	}
	src, dst, _ := s.cfg.L2LCSrcDst(cid)
	healthy := 0
	for ch := 0; ch < s.cfg.Channels; ch++ {
		if !s.chFailed[s.cfg.L2LCID(src, dst, ch)] {
			healthy++
		}
	}
	if healthy <= 1 {
		return fmt.Errorf("core: channel %d is the last healthy L2LC from layer %d to %d", cid, src, dst)
	}
	// An in-flight connection over cid finishes its packet normally; the
	// channel simply accepts no new arbitration.
	s.chFailed[cid] = true
	return nil
}

// RestoreChannel returns a failed L2LC to service (a repaired transient
// fault). Restoring a healthy channel is a no-op.
func (s *Switch) RestoreChannel(cid int) error {
	if cid < 0 || cid >= len(s.chFailed) {
		return fmt.Errorf("core: no such channel %d", cid)
	}
	s.chFailed[cid] = false
	return nil
}

// ChannelFailed reports whether cid has been failed.
func (s *Switch) ChannelFailed(cid int) bool { return s.chFailed[cid] }

// ensurePortFaults lazily allocates the port-fault masks; switches that
// never see a port fault stay on the exact fault-free memory layout.
func (s *Switch) ensurePortFaults() {
	if s.inFailed != nil {
		return
	}
	s.inFailed = make([]bitvec.Vec, s.cfg.Layers)
	for l := range s.inFailed {
		s.inFailed[l] = bitvec.New(s.ports)
	}
	s.outFailed = bitvec.New(s.cfg.Radix)
}

// refreshPortFaults recomputes the portFaults gate after a restore.
func (s *Switch) refreshPortFaults() {
	s.portFaults = s.outFailed.Any()
	for _, v := range s.inFailed {
		s.portFaults = s.portFaults || v.Any()
	}
}

// maskFailedInputs clears every failed input's bit from the phase-1
// request vectors (and keeps the WLRG weights consistent with the
// masked masks). Called only while a port fault is active.
func (s *Switch) maskFailedInputs() {
	cfg := s.cfg
	for o := range s.intermReq {
		s.intermReq[o].AndNot(s.inFailed[s.layerOf[o]])
	}
	if cfg.Alloc == topo.PriorityBased {
		for l := 0; l < cfg.Layers; l++ {
			for d := 0; d < cfg.Layers; d++ {
				if d != l {
					s.destReq[l*cfg.Layers+d].AndNot(s.inFailed[l])
				}
			}
		}
		return
	}
	for c := range s.chReq {
		s.chReq[c].AndNot(s.inFailed[s.cidSrc[c]])
		s.chWeight[c] = s.chReq[c].Count()
	}
}

// FailInput removes input port in from service at runtime: its future
// requests are masked out of every arbitration phase by a word-parallel
// AndNot. A connection the input already holds drains normally — a port
// fault never drops an in-flight flit.
func (s *Switch) FailInput(in int) error {
	if in < 0 || in >= s.cfg.Radix {
		return fmt.Errorf("core: no such input %d", in)
	}
	s.ensurePortFaults()
	s.inFailed[s.layerOf[in]].Set(s.localIdx[in])
	s.portFaults = true
	return nil
}

// RestoreInput returns a failed input port to service.
func (s *Switch) RestoreInput(in int) error {
	if in < 0 || in >= s.cfg.Radix {
		return fmt.Errorf("core: no such input %d", in)
	}
	if s.inFailed == nil {
		return nil
	}
	s.inFailed[s.layerOf[in]].Clear(s.localIdx[in])
	s.refreshPortFaults()
	return nil
}

// FailOutput removes final output out from service at runtime: requests
// toward it are ignored and its sub-block stops arbitrating. A
// connection it already carries drains normally first.
func (s *Switch) FailOutput(out int) error {
	if out < 0 || out >= s.cfg.Radix {
		return fmt.Errorf("core: no such output %d", out)
	}
	s.ensurePortFaults()
	s.outFailed.Set(out)
	s.portFaults = true
	return nil
}

// RestoreOutput returns a failed output port to service.
func (s *Switch) RestoreOutput(out int) error {
	if out < 0 || out >= s.cfg.Radix {
		return fmt.Errorf("core: no such output %d", out)
	}
	if s.inFailed == nil {
		return nil
	}
	s.outFailed.Clear(out)
	s.refreshPortFaults()
	return nil
}

// InputFailed reports whether input port in is out of service.
func (s *Switch) InputFailed(in int) bool {
	return s.inFailed != nil && s.inFailed[s.layerOf[in]].Get(s.localIdx[in])
}

// OutputFailed reports whether final output out is out of service.
func (s *Switch) OutputFailed(out int) bool {
	return s.inFailed != nil && s.outFailed.Get(out)
}

// PathBlocked reports whether no fault-free route from input in to
// final output out currently exists: the input or the output is failed,
// or (for a cross-layer pair) every L2LC between the two layers is. The
// simulator uses it to detect and retire dead flows.
func (s *Switch) PathBlocked(in, out int) bool {
	if in < 0 || in >= s.cfg.Radix || out < 0 || out >= s.cfg.Radix {
		return true
	}
	if s.portFaults && (s.inFailed[s.layerOf[in]].Get(s.localIdx[in]) || s.outFailed.Get(out)) {
		return true
	}
	l, d := s.layerOf[in], s.layerOf[out]
	if l == d {
		return false
	}
	return s.healthyChannel(l, d, 0) < 0
}

// Stats reports the switch's connection counters since construction:
// connections carried per L2LC, connections formed per output, and the
// count that stayed on their source layer. The L2LC histogram is the
// direct observable of the channel-allocation policies' balance.
type Stats struct {
	// ChannelGrants counts connections per L2LC, indexed by channel id.
	ChannelGrants []int64
	// OutputGrants counts connections per final output.
	OutputGrants []int64
	// LocalPath counts same-layer connections (no L2LC used).
	LocalPath int64
}

// Stats returns a snapshot of the connection counters.
func (s *Switch) Stats() Stats {
	return Stats{
		ChannelGrants: append([]int64(nil), s.chGrants...),
		OutputGrants:  append([]int64(nil), s.outGrants...),
		LocalPath:     s.localPath,
	}
}

// Class returns the CLRG priority class of primary input in at the
// sub-block of output out; it panics for other schemes. Exposed for
// tests and fairness diagnostics.
func (s *Switch) Class(out, in int) int {
	if s.subs[out].clrg == nil {
		panic("core: Class is only meaningful for CLRG")
	}
	return s.subs[out].clrg.Class(in)
}
