package arb

import (
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
)

// CLRG implements the paper's Class-based Least Recently Granted
// arbitration for one inter-layer sub-block (one final output).
//
// The sub-block chooses among "lines" — the c*(L-1) incoming L2LCs plus
// the local intermediate output — but fairness is tracked per *primary
// input*: a small thermometer counter per input records how often that
// input has won this output. The counter value is the input's priority
// class (class 0, a count of zero, is the highest). The line presenting
// the lowest-class input wins; ties within a class break by LRG over the
// lines. Whenever a winner's counter saturates, every counter in the
// sub-block halves, preserving relative class order (paper §III-B4,
// §IV-B1).
type CLRG struct {
	lrg      LRG
	counters []uint64   // one 8-bit class counter per primary input, eight per word
	maxClass int        // counters saturate at this value (classes-1)
	masked   bitvec.Vec // scratch: best-class request mask, reused per Grant
	audit    *obs.FairnessAudit
}

// NewCLRG returns a CLRG arbiter over the given number of lines, tracking
// the given number of primary inputs, with the given class count (the
// paper uses 3 for radix 64). Initial line LRG order is 0 > 1 > ...
func NewCLRG(lines, inputs, classes int) *CLRG {
	return &NewCLRGs(lines, inputs, classes, 1)[0]
}

// NewCLRGs returns count independent CLRG arbiters, each as NewCLRG
// would build it, backed by four allocations total: the arbiter structs,
// their line stamps, their class counters and their scratch masks are
// carved from shared slabs. The arbiters share no mutable state.
func NewCLRGs(lines, inputs, classes, count int) []CLRG {
	if classes < 2 {
		panic("arb: CLRG needs at least 2 classes")
	}
	if classes > 256 {
		panic("arb: CLRG class count exceeds counter width")
	}
	cw, mw := (inputs+7)/8, bitvec.WordsFor(lines)
	cs := make([]CLRG, count)
	stamps := make([]int64, lines*count)
	counters := make([]uint64, cw*count)
	masks := make([]uint64, mw*count)
	for k := range cs {
		cs[k] = CLRG{
			lrg:      lrgOver(stamps[k*lines : (k+1)*lines : (k+1)*lines]),
			counters: counters[k*cw : (k+1)*cw : (k+1)*cw],
			maxClass: classes - 1,
			masked:   bitvec.Vec(masks[k*mw : (k+1)*mw : (k+1)*mw]),
		}
	}
	return cs
}

// NewCLRGFromOrder is NewCLRG with an explicit initial line priority
// order, order[0] highest.
func NewCLRGFromOrder(order []int, inputs, classes int) *CLRG {
	c := NewCLRG(len(order), inputs, classes)
	c.lrg = *NewLRGFromOrder(order)
	return c
}

// SetAudit attaches a fairness audit: every Grant call then records one
// observation per requesting line — (primary input, its current class,
// whether the line won) — which is where the per-class grant/denial and
// starvation-streak counters of the fairness report come from. A nil
// audit (the default) disables auditing.
func (c *CLRG) SetAudit(a *obs.FairnessAudit) { c.audit = a }

// Lines returns the number of contending lines.
func (c *CLRG) Lines() int { return c.lrg.N() }

// Class returns the current priority class of a primary input (0 is the
// highest priority).
func (c *CLRG) Class(input int) int {
	return int(c.counters[input>>3] >> (input & 7 * 8) & 0xff)
}

// Grant returns the winning line among the set bits of req, where
// inputOf[line] is the primary input the line is presenting this cycle.
// It returns -1 if nothing requests, before touching the masked scratch
// or the audit: sub-blocks with nothing requesting are the common case
// in a large switch under light load. Arbitration state is not
// modified; an attached audit records each contender's outcome (Grant
// is called once per sub-block arbitration round, so audit counts are
// per-round).
func (c *CLRG) Grant(req bitvec.Vec, inputOf []int) int {
	if req.None() {
		return -1
	}
	best := c.maxClass + 1
	for w, word := range req {
		for word != 0 {
			line := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if cl := c.Class(inputOf[line]); cl < best {
				best = cl
			}
		}
	}
	// Inhibit every line outside the best class, then LRG tie-break.
	c.masked.Zero()
	for w, word := range req {
		for word != 0 {
			line := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if c.Class(inputOf[line]) == best {
				c.masked.Set(line)
			}
		}
	}
	win := c.lrg.Grant(c.masked)
	if c.audit != nil {
		for w, word := range req {
			for word != 0 {
				line := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				in := inputOf[line]
				c.audit.Observe(in, c.Class(in), line == win)
			}
		}
	}
	return win
}

// Update commits a win by the given line for the given primary input: the
// line's LRG priority drops (LRG is updated even on cycles decided purely
// by class), the input's counter increments, and a saturating counter
// triggers the divide-by-two of every counter in the sub-block. The
// halving is word-parallel: one shift and mask halves eight counters, the
// mask dropping the bit each counter would shift into its neighbour.
func (c *CLRG) Update(line, input int) {
	c.lrg.Update(line)
	if c.Class(input) >= c.maxClass {
		for i, w := range c.counters {
			c.counters[i] = w >> 1 & 0x7f7f7f7f7f7f7f7f
		}
	}
	c.counters[input>>3] += 1 << (input & 7 * 8)
}

// LineOrder returns the current LRG order over lines, highest first.
func (c *CLRG) LineOrder() []int { return c.lrg.Order() }

// WLRG implements Weighted LRG for one inter-layer sub-block: the LRG
// priority of a winning line is frozen until the line has won as many
// consecutive arbitrations as it has requestors behind it, so channels
// carrying more contenders receive proportionally more bandwidth (paper
// §III-B3). The weight is recomputed by the local switch every cycle and
// travels with the request — the very traffic that makes the scheme
// infeasible in hardware, which is why Table V omits it.
type WLRG struct {
	lrg  LRG
	wins []int // consecutive wins since the line last dropped priority
}

// NewWLRG returns a WLRG arbiter over the given number of lines with
// initial order 0 > 1 > ...
func NewWLRG(lines int) *WLRG { return &NewWLRGs(lines, 1)[0] }

// NewWLRGs returns count independent WLRG arbiters over the given number
// of lines each, backed by three allocations total. The arbiters share
// no mutable state.
func NewWLRGs(lines, count int) []WLRG {
	ws := make([]WLRG, count)
	stamps := make([]int64, lines*count)
	wins := make([]int, lines*count)
	for k := range ws {
		ws[k] = WLRG{
			lrg:  lrgOver(stamps[k*lines : (k+1)*lines : (k+1)*lines]),
			wins: wins[k*lines : (k+1)*lines : (k+1)*lines],
		}
	}
	return ws
}

// Lines returns the number of contending lines.
func (w *WLRG) Lines() int { return w.lrg.N() }

// Grant returns the highest-priority requesting line among the set bits
// of req, or -1.
func (w *WLRG) Grant(req bitvec.Vec) int { return w.lrg.Grant(req) }

// Update commits a win by line whose current weight (requestor count at
// its local switch, >= 1) is weight. The LRG priority drops only after
// weight consecutive wins.
func (w *WLRG) Update(line, weight int) {
	if weight < 1 {
		weight = 1
	}
	w.wins[line]++
	if w.wins[line] >= weight {
		w.wins[line] = 0
		w.lrg.Update(line)
	}
}

// LineOrder returns the current LRG order over lines, highest first.
func (w *WLRG) LineOrder() []int { return w.lrg.Order() }
