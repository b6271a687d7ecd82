// Package crossbar models the flat 2D Swizzle-Switch (paper §II-A) and
// its naive 3D extension, the folded switch (paper §II-B). Both are
// matrix crossbars with built-in least-recently-granted arbitration; the
// folded switch redistributes ports over layers but keeps the single flat
// arbitration domain, so the two are cycle-identical in behaviour and
// differ only in physical cost (see internal/phys).
//
// The model is connection-oriented, mirroring how the Swizzle-Switch
// reuses its output buses as priority lines: an output arbitrates only
// while idle, and a granted connection holds the input and output until
// the caller releases it after the packet's last flit.
package crossbar

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/topo"
)

// Switch is a flat N×N matrix crossbar with one arbiter per output.
type Switch struct {
	n       int
	arbs    []arb.Arbiter
	held    []int        // held[in] = output held by in, or -1
	outIn   []int        // outIn[out] = input holding out, or -1
	reqMask []bitvec.Vec // per output: request bitset, rebuilt each cycle
	reqOuts bitvec.Vec   // outputs whose reqMask is non-empty this cycle
	grants  []topo.Grant // Arbitrate's return buffer, valid until the next call

	// Runtime fault state, lazily allocated by ensureFaults: failed
	// inputs and outputs as port bitsets, failed crosspoints as one
	// input bitset per output column. faultActive gates every fault
	// branch in Arbitrate, so the fault-free hot loop is unchanged.
	inFailed    bitvec.Vec
	outFailed   bitvec.Vec
	xpFailed    []bitvec.Vec
	faultActive bool

	audit *obs.FairnessAudit // nil when observability is disabled

	// stockLRG marks a switch built by New (identity-order LRG at every
	// column); see PlainLRG.
	stockLRG bool
}

// New returns an N×N crossbar with LRG arbitration at every output, the
// configuration the paper's 2D baseline uses.
func New(radix int) *Switch {
	lrgs := arb.NewLRGs(radix, radix) // slab-backed: 2 allocs for all columns
	arbs := make([]arb.Arbiter, radix)
	for i := range arbs {
		arbs[i] = &lrgs[i]
	}
	s, err := NewWithArbiters(radix, arbs)
	if err != nil {
		panic(err) // cannot happen: we built a well-formed arbiter set
	}
	s.stockLRG = true
	return s
}

// PlainLRG reports whether the switch currently behaves exactly like a
// stock New(radix) instance: identity-order LRG arbitration at every
// column, no runtime fault active, and no fairness audit attached. The
// single-switch engine in internal/sim keys its fused arbitration path
// off this — that path re-implements precisely this configuration.
func (s *Switch) PlainLRG() bool { return s.stockLRG && !s.faultActive && s.audit == nil }

// NewFolded returns the 3D folded baseline: a radix-N switch folded over
// the given number of layers. Arbitration is identical to the flat 2D
// switch (paper §II-B); layers only affect physical cost, so the value
// behaves exactly like New(radix).
func NewFolded(radix, layers int) *Switch {
	if layers < 1 || radix%layers != 0 {
		panic(fmt.Sprintf("crossbar: cannot fold radix %d over %d layers", radix, layers))
	}
	return New(radix)
}

// NewWithArbiters returns a crossbar using the provided per-output
// arbiters (used by arbitration-policy ablations). Each arbiter must span
// exactly radix requestors.
func NewWithArbiters(radix int, arbs []arb.Arbiter) (*Switch, error) {
	if len(arbs) != radix {
		return nil, fmt.Errorf("crossbar: %d arbiters for radix %d", len(arbs), radix)
	}
	for o, a := range arbs {
		if a.N() != radix {
			return nil, fmt.Errorf("crossbar: output %d arbiter spans %d, want %d", o, a.N(), radix)
		}
	}
	s := &Switch{
		n:       radix,
		arbs:    arbs,
		reqMask: make([]bitvec.Vec, radix),
	}
	// All column request bitsets plus the dirty-column set come from one
	// words slab, and both connection maps from one int slab: a radix-64
	// switch costs a few allocations instead of dozens of small ones
	// (fabric builds one switch per router, so constructor allocs scale
	// with network size).
	words := bitvec.WordsFor(radix)
	slab := make([]uint64, words*(radix+1))
	s.reqOuts = bitvec.Vec(slab[radix*words : (radix+1)*words : (radix+1)*words])
	conns := make([]int, 2*radix)
	s.held = conns[:radix:radix]
	s.outIn = conns[radix : 2*radix : 2*radix]
	for i := range s.held {
		s.held[i] = -1
		s.outIn[i] = -1
		s.reqMask[i] = bitvec.Vec(slab[i*words : (i+1)*words : (i+1)*words])
	}
	return s, nil
}

// Radix returns the port count.
func (s *Switch) Radix() int { return s.n }

// SetObserver attaches observability sinks (internal/obs). The flat
// crossbar has no priority classes, so the observer's fairness audit
// receives one class-0 observation per contender per output
// arbitration round. Passing nil detaches and restores the
// allocation-free disabled path.
func (s *Switch) SetObserver(o *obs.Observer) { s.audit = o.Audit() }

// Arbitrate runs one arbitration cycle. req[i] is the output input i
// requests, or -1. Inputs already holding a connection and outputs busy
// with one do not participate. It returns the connections formed this
// cycle; each stays established until Release. The returned slice is a
// scratch buffer reused by the next Arbitrate call, so callers must
// consume it before re-arbitrating (every simulator in this repository
// does).
func (s *Switch) Arbitrate(req []int) []topo.Grant {
	if len(req) != s.n {
		panic(fmt.Sprintf("crossbar: request vector length %d, want %d", len(req), s.n))
	}
	// One pass over the inputs builds every output's request bitset:
	// each input requests at most one output, so a granted input can
	// never reappear in a later output's mask and prebuilding is
	// equivalent to the per-output scan it replaces. Columns dirtied
	// last cycle are zeroed lazily here (reqOuts tracks them), so an
	// Arbitrate under light load touches only the contended columns
	// rather than sweeping all n masks every cycle.
	for w, word := range s.reqOuts {
		for word != 0 {
			out := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			s.reqMask[out].Zero()
		}
	}
	s.reqOuts.Zero()
	for in, out := range req {
		if out >= 0 && s.held[in] < 0 && s.outIn[out] < 0 {
			s.reqMask[out].Set(in)
			s.reqOuts.Set(out)
		}
	}
	if s.faultActive {
		// Failed inputs and failed crosspoints drop out of every
		// dirtied column's request bitset with a word-parallel AndNot
		// (clean columns are already empty).
		for w, word := range s.reqOuts {
			for word != 0 {
				out := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				s.reqMask[out].AndNot(s.inFailed)
				if s.xpFailed != nil {
					s.reqMask[out].AndNot(s.xpFailed[out])
				}
			}
		}
	}
	grants := s.grants[:0]
	// Ascending set-bit iteration visits exactly the non-empty columns
	// in the same 0..n-1 output order as a full scan, so the grant
	// sequence is identical to the pre-dirty-tracking implementation.
	for w, word := range s.reqOuts {
		for word != 0 {
			out := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if s.faultActive && s.outFailed.Get(out) {
				continue // failed output: its column never arbitrates
			}
			m := s.reqMask[out]
			if m.None() {
				continue // faults emptied the column
			}
			win := s.arbs[out].Grant(m)
			if s.audit != nil {
				for w2, word2 := range m {
					for word2 != 0 {
						in := w2<<6 | bits.TrailingZeros64(word2)
						word2 &= word2 - 1
						s.audit.Observe(in, 0, in == win)
					}
				}
			}
			if win < 0 {
				continue
			}
			s.arbs[out].Update(win)
			s.held[win] = out
			s.outIn[out] = win
			grants = append(grants, topo.Grant{In: win, Out: out})
		}
	}
	s.grants = grants
	return grants
}

// Release frees the connection held by input in after its last flit. It
// is a no-op if in holds nothing.
func (s *Switch) Release(in int) {
	out := s.held[in]
	if out < 0 {
		return
	}
	s.held[in] = -1
	s.outIn[out] = -1
}

// Holds returns the output input in is connected to, or -1.
func (s *Switch) Holds(in int) int { return s.held[in] }

// OutputBusy reports whether out is carrying an active connection.
func (s *Switch) OutputBusy(out int) bool { return s.outIn[out] >= 0 }

// ensureFaults lazily allocates the port-fault bitsets; fault-free
// switches keep the exact fault-free memory layout.
func (s *Switch) ensureFaults() {
	if s.inFailed != nil {
		return
	}
	s.inFailed = bitvec.New(s.n)
	s.outFailed = bitvec.New(s.n)
}

// ensureXpFaults lazily allocates the per-column crosspoint masks.
func (s *Switch) ensureXpFaults() {
	s.ensureFaults()
	if s.xpFailed != nil {
		return
	}
	s.xpFailed = make([]bitvec.Vec, s.n)
	for out := range s.xpFailed {
		s.xpFailed[out] = bitvec.New(s.n)
	}
}

// refreshFaults recomputes the faultActive gate after a restore.
func (s *Switch) refreshFaults() {
	s.faultActive = s.inFailed.Any() || s.outFailed.Any()
	for _, v := range s.xpFailed {
		s.faultActive = s.faultActive || v.Any()
	}
}

func (s *Switch) checkPort(what string, p int) error {
	if p < 0 || p >= s.n {
		return fmt.Errorf("crossbar: no such %s %d", what, p)
	}
	return nil
}

// FailInput removes input in from service at runtime: its requests are
// masked out of every column with a word-parallel AndNot. A connection
// it already holds drains normally — a fault never drops a flit here.
func (s *Switch) FailInput(in int) error {
	if err := s.checkPort("input", in); err != nil {
		return err
	}
	s.ensureFaults()
	s.inFailed.Set(in)
	s.faultActive = true
	return nil
}

// RestoreInput returns a failed input to service.
func (s *Switch) RestoreInput(in int) error {
	if err := s.checkPort("input", in); err != nil {
		return err
	}
	if s.inFailed == nil {
		return nil
	}
	s.inFailed.Clear(in)
	s.refreshFaults()
	return nil
}

// FailOutput removes output out from service at runtime: its column
// stops arbitrating once any connection it carries drains.
func (s *Switch) FailOutput(out int) error {
	if err := s.checkPort("output", out); err != nil {
		return err
	}
	s.ensureFaults()
	s.outFailed.Set(out)
	s.faultActive = true
	return nil
}

// RestoreOutput returns a failed output to service.
func (s *Switch) RestoreOutput(out int) error {
	if err := s.checkPort("output", out); err != nil {
		return err
	}
	if s.inFailed == nil {
		return nil
	}
	s.outFailed.Clear(out)
	s.refreshFaults()
	return nil
}

// FailCrosspoint removes the single cross-point (in, out) from service:
// input in can no longer reach output out, while both ports keep
// serving every other path — the matrix analog of one dead pull-down
// stack.
func (s *Switch) FailCrosspoint(in, out int) error {
	if err := s.checkPort("input", in); err != nil {
		return err
	}
	if err := s.checkPort("output", out); err != nil {
		return err
	}
	s.ensureXpFaults()
	s.xpFailed[out].Set(in)
	s.faultActive = true
	return nil
}

// RestoreCrosspoint returns a failed cross-point to service.
func (s *Switch) RestoreCrosspoint(in, out int) error {
	if err := s.checkPort("input", in); err != nil {
		return err
	}
	if err := s.checkPort("output", out); err != nil {
		return err
	}
	if s.xpFailed == nil {
		return nil
	}
	s.xpFailed[out].Clear(in)
	s.refreshFaults()
	return nil
}

// InputFailed reports whether input in is out of service.
func (s *Switch) InputFailed(in int) bool { return s.inFailed != nil && s.inFailed.Get(in) }

// OutputFailed reports whether output out is out of service.
func (s *Switch) OutputFailed(out int) bool { return s.inFailed != nil && s.outFailed.Get(out) }

// CrosspointFailed reports whether cross-point (in, out) is out of
// service.
func (s *Switch) CrosspointFailed(in, out int) bool {
	return s.xpFailed != nil && s.xpFailed[out].Get(in)
}

// PathBlocked reports whether input in currently has no fault-free path
// to output out: either port failed, or their cross-point did. The
// simulator uses it to detect and retire dead flows.
func (s *Switch) PathBlocked(in, out int) bool {
	if in < 0 || in >= s.n || out < 0 || out >= s.n {
		return true
	}
	return s.InputFailed(in) || s.OutputFailed(out) || s.CrosspointFailed(in, out)
}
