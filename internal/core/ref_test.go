package core

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/topo"
)

// refSwitch is the reference oracle for Switch.Arbitrate: the full-scan
// two-phase cycle the switch ran before arbitration tracked what each
// cycle touched. Every cycle it zeroes every request mask, grants every
// local-switch and L2LC arbiter whether or not anything requests it, and
// walks every final output in phase 2b. It embeds a Switch of its own
// for the arbiters, connection state, faults and counters (Release,
// Fail*, Restore* and Stats are shared code), but keeps every per-cycle
// scratch buffer in its own fields, so a clear or a touched mark the
// fast path forgets cannot be hidden by the reference.
type refSwitch struct {
	*Switch

	grants     []topo.Grant
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

func newRefSwitch(cfg topo.Config) (*refSwitch, error) {
	sw, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n, ports, lines, nch := cfg.Radix, cfg.PortsPerLayer(), cfg.SubBlockInputs(), cfg.NumL2LC()
	r := &refSwitch{
		Switch:     sw,
		intermReq:  make([]bitvec.Vec, n),
		chReq:      make([]bitvec.Vec, nch),
		destReq:    make([]bitvec.Vec, cfg.Layers*cfg.Layers),
		intermWin:  make([]int, n),
		chWin:      make([]int, nch),
		chWeight:   make([]int, nch),
		outLineReq: make([]bitvec.Vec, n),
		lineInput:  make([]int, n*lines),
		lineWeight: make([]int, n*lines),
		lineCh:     make([]int, n*lines),
	}
	for o := 0; o < n; o++ {
		r.intermReq[o] = bitvec.New(ports)
		r.outLineReq[o] = bitvec.New(lines)
	}
	for c := range r.chReq {
		r.chReq[c] = bitvec.New(ports)
	}
	for d := range r.destReq {
		r.destReq[d] = bitvec.New(ports)
	}
	return r, nil
}

// Arbitrate is Switch.Arbitrate as a full scan: every mask zeroed,
// every arbiter granted, every output walked.
func (s *refSwitch) Arbitrate(req []int) []topo.Grant {
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
		s.intermWin[o] = s.interArb[o].Grant(s.intermReq[o])
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
					w := s.chArb[cid].Grant(remaining)
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
			s.chWin[c] = s.chArb[c].Grant(s.chReq[c])
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
			win = sb.wlrg.Grant(lineReq)
		case topo.CLRG:
			win = sb.clrg.Grant(lineReq, lineInput)
		default:
			win = sb.plain.Grant(lineReq)
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

// maskFailedInputs masks the failed inputs out of every request vector
// and recounts the channel weights.
func (s *refSwitch) maskFailedInputs() {
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
