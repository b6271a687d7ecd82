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
	lrg      *LRG
	counters []uint8    // one per primary input
	maxClass uint8      // counters saturate at this value (classes-1)
	masked   bitvec.Vec // scratch: best-class request mask, reused per Grant
	reqBits  bitvec.Vec // adapter scratch for the []bool Grant
	audit    *obs.FairnessAudit
}

// NewCLRG returns a CLRG arbiter over the given number of lines, tracking
// the given number of primary inputs, with the given class count (the
// paper uses 3 for radix 64). Initial line LRG order is 0 > 1 > ...
func NewCLRG(lines, inputs, classes int) *CLRG {
	return newCLRG(NewLRG(lines), inputs, classes)
}

// NewCLRGFromOrder is NewCLRG with an explicit initial line priority
// order, order[0] highest.
func NewCLRGFromOrder(order []int, inputs, classes int) *CLRG {
	return newCLRG(NewLRGFromOrder(order), inputs, classes)
}

func newCLRG(lrg *LRG, inputs, classes int) *CLRG {
	if classes < 2 {
		panic("arb: CLRG needs at least 2 classes")
	}
	if classes > 256 {
		panic("arb: CLRG class count exceeds counter width")
	}
	return &CLRG{
		lrg:      lrg,
		counters: make([]uint8, inputs),
		maxClass: uint8(classes - 1),
		masked:   bitvec.New(lrg.N()),
		reqBits:  bitvec.New(lrg.N()),
	}
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
func (c *CLRG) Class(input int) int { return int(c.counters[input]) }

// Grant returns the winning line among those with req set, where
// inputOf[line] is the primary input the line is presenting this cycle.
// It returns -1 if nothing requests. Arbitration state is not modified;
// an attached audit records each contender's outcome (Grant is called
// once per sub-block arbitration round, so audit counts are per-round).
func (c *CLRG) Grant(req []bool, inputOf []int) int {
	// Early return on an idle round, before the bitset conversion and
	// the masked-scratch rebuild: sub-blocks with nothing requesting are
	// the common case in a large switch under light load.
	any := false
	for _, r := range req {
		if r {
			any = true
			break
		}
	}
	if !any {
		return -1
	}
	c.reqBits.FromBools(req)
	return c.GrantBits(c.reqBits, inputOf)
}

// GrantBits is Grant on the bitset request view. An idle round returns
// -1 before touching the masked scratch or the audit.
func (c *CLRG) GrantBits(req bitvec.Vec, inputOf []int) int {
	if req.None() {
		return -1
	}
	best := int(c.maxClass) + 1
	for w, word := range req {
		for word != 0 {
			line := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if cl := int(c.counters[inputOf[line]]); cl < best {
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
			if int(c.counters[inputOf[line]]) == best {
				c.masked.Set(line)
			}
		}
	}
	win := c.lrg.GrantBits(c.masked)
	if c.audit != nil {
		for w, word := range req {
			for word != 0 {
				line := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				in := inputOf[line]
				c.audit.Observe(in, int(c.counters[in]), line == win)
			}
		}
	}
	return win
}

// Update commits a win by the given line for the given primary input: the
// line's LRG priority drops (LRG is updated even on cycles decided purely
// by class), the input's counter increments, and a saturating counter
// triggers the divide-by-two of every counter in the sub-block.
func (c *CLRG) Update(line, input int) {
	c.lrg.Update(line)
	if c.counters[input] >= c.maxClass {
		for i := range c.counters {
			c.counters[i] /= 2
		}
	}
	c.counters[input]++
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
	lrg  *LRG
	wins []int // consecutive wins since the line last dropped priority
}

// NewWLRG returns a WLRG arbiter over the given number of lines with
// initial order 0 > 1 > ...
func NewWLRG(lines int) *WLRG {
	return &WLRG{lrg: NewLRG(lines), wins: make([]int, lines)}
}

// Lines returns the number of contending lines.
func (w *WLRG) Lines() int { return w.lrg.N() }

// Grant returns the highest-priority requesting line, or -1.
func (w *WLRG) Grant(req []bool) int { return w.lrg.Grant(req) }

// GrantBits is Grant on the bitset request view.
func (w *WLRG) GrantBits(req bitvec.Vec) int { return w.lrg.GrantBits(req) }

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
