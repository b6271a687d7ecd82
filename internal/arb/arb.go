// Package arb implements the arbitration primitives of the Swizzle-Switch
// family and of the Hi-Rise hierarchical switch (paper §III-B):
//
//   - LRG: least-recently-granted priority, the scheme embedded in the 2D
//     Swizzle-Switch cross-points (Matrix is its literal priority-bit
//     form);
//   - CLRG: the paper's class-based LRG, which bins contenders into
//     priority classes by a per-primary-input usage counter and
//     tie-breaks within a class using LRG;
//   - WLRG: weighted LRG, which freezes priorities in proportion to the
//     number of requestors behind a channel (hardware-infeasible, modeled
//     for comparison);
//   - QoS: the weighted bandwidth shares the Swizzle-Switch silicon also
//     supports;
//   - RoundRobin and Fixed, used by ablations.
//
// Every arbiter takes its requests as one bitset (internal/bitvec), one
// bit per requestor: a cross-point column evaluates all of its priority
// lines at once, and the model evaluates a word of them at once.
//
// Grant and Update are deliberately separate operations: in Hi-Rise the
// local switch's priority vector is updated only when its winner also wins
// the final output at the inter-layer switch (the update is
// back-propagated), which is the property that prevents starvation.
package arb

import (
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
)

// Arbiter selects one winner among n requestors for a single resource.
// Grant picks a round's winner and Update commits it. A round whose Grant
// is not followed by Update is a round nobody won: the priority arbiters
// keep their state, and QoS still credits the round's requestors.
type Arbiter interface {
	// N returns the number of requestor slots.
	N() int
	// Grant returns the winning requestor among the set bits of req, or
	// -1 if none is set. req must span bitvec.WordsFor(N()) words with
	// no bit at or beyond N() set. Grant never commits its own round
	// (internal scratch may be reused).
	Grant(req bitvec.Vec) int
	// Update records that winner was granted, adjusting priorities.
	Update(winner int)
}

// LRG is least-recently-granted arbitration: the winner of each grant
// becomes the lowest-priority requestor. It is the behavioural model of
// the Swizzle-Switch priority-vector hardware (one bit per requestor pair
// stored in the cross-points).
type LRG struct {
	order []int // order[0] is the highest-priority requestor
	pos   []int // pos[r] is r's index within order
}

// NewLRG returns an LRG arbiter over n requestors with initial priority
// order 0 > 1 > ... > n-1.
func NewLRG(n int) *LRG {
	l := &LRG{order: make([]int, n), pos: make([]int, n)}
	l.identity()
	return l
}

// NewLRGs returns count independent LRG arbiters over n requestors each
// (identity initial order), backed by three allocations total instead of
// 3*count: the arbiter structs and their order/pos arrays are carved from
// shared slabs. The arbiters share no mutable state.
func NewLRGs(n, count int) []LRG {
	ls := make([]LRG, count)
	orders := make([]int, n*count)
	poss := make([]int, n*count)
	for k := range ls {
		ls[k].order = orders[k*n : (k+1)*n : (k+1)*n]
		ls[k].pos = poss[k*n : (k+1)*n : (k+1)*n]
		ls[k].identity()
	}
	return ls
}

// NewLRGFromOrder returns an LRG arbiter with the given initial priority
// order, order[0] highest. The order must be a permutation of [0,len).
func NewLRGFromOrder(order []int) *LRG {
	n := len(order)
	l := &LRG{
		order: append([]int(nil), order...),
		pos:   make([]int, n),
	}
	seen := make([]bool, n)
	for i, r := range l.order {
		if r < 0 || r >= n || seen[r] {
			panic("arb: initial order is not a permutation")
		}
		seen[r] = true
		l.pos[r] = i
	}
	return l
}

// identity sets the initial priority order 0 > 1 > ... > n-1.
func (l *LRG) identity() {
	for i := range l.order {
		l.order[i], l.pos[i] = i, i
	}
}

// N returns the number of requestor slots.
func (l *LRG) N() int { return len(l.order) }

// Grant returns the highest-priority requestor among the set bits of
// req, or -1. The winner is the set bit with the minimum priority
// position, found by iterating only the set bits — one TrailingZeros64
// step per requestor instead of an order-list scan.
func (l *LRG) Grant(req bitvec.Vec) int {
	best, bestPos := -1, len(l.order)
	for w, word := range req {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if p := l.pos[i]; p < bestPos {
				bestPos, best = p, i
			}
		}
	}
	return best
}

// Update moves winner to the lowest priority position.
func (l *LRG) Update(winner int) {
	i := l.pos[winner]
	copy(l.order[i:], l.order[i+1:])
	l.order[len(l.order)-1] = winner
	for j := i; j < len(l.order); j++ {
		l.pos[l.order[j]] = j
	}
}

// Order returns a copy of the current priority order, highest first.
func (l *LRG) Order() []int { return append([]int(nil), l.order...) }

// RoundRobin grants the first requestor at or after the slot following the
// previous winner. It is the pointer half of the paper's §VII iSLIP-1
// *analog* (topo.ISLIP1): round-robin pointers grafted onto the Hi-Rise
// two-stage structure for the related-work comparison.
//
// Pointer-semantics audit (canonical iSLIP advances its grant/accept
// pointers only when a grant is accepted, and only in the first
// iteration — that accept-gating is what desynchronizes the pointers):
// Update here advances unconditionally, but the arbiter itself never
// decides when to update. internal/core calls Update only during grant
// back-propagation, i.e. only for winners whose connection actually
// forms — the local-switch pointer moves only on a final-stage grant,
// which is exactly the §VII analog's documented behaviour ("the first
// stage's pointer advancing only on a final-stage grant"). The paper
// observes the analog "is similar to the baseline L-2-L LRG and does
// not solve the fairness issues", and the repo keeps it that way on
// purpose as the comparison point. The real accept-gated, multi-
// iteration iSLIP on a flat VOQ crossbar lives in internal/sched.
type RoundRobin struct {
	n, next int
}

// NewRoundRobin returns a round-robin arbiter over n requestors.
func NewRoundRobin(n int) *RoundRobin { return &RoundRobin{n: n} }

// N returns the number of requestor slots.
func (r *RoundRobin) N() int { return r.n }

// Grant returns the next requestor in cyclic order among the set bits
// of req, or -1: the lowest set bit at or after next, wrapping.
func (r *RoundRobin) Grant(req bitvec.Vec) int { return req.NextWrap(r.next) }

// Update advances the scan position past the winner. The advance is
// unconditional by design: accept-gating is the caller's job (see the
// type comment), and every caller in this repo invokes Update only for
// winners whose grant stands.
func (r *RoundRobin) Update(winner int) { r.next = (winner + 1) % r.n }

// Fixed grants the lowest-index requestor and never changes priority. It
// exists as an intentionally unfair baseline for fairness experiments.
type Fixed struct{ n int }

// NewFixed returns a fixed-priority arbiter over n requestors.
func NewFixed(n int) *Fixed { return &Fixed{n: n} }

// N returns the number of requestor slots.
func (f *Fixed) N() int { return f.n }

// Grant returns the lowest set bit of req, or -1.
func (f *Fixed) Grant(req bitvec.Vec) int { return req.First() }

// Update is a no-op for fixed priority.
func (f *Fixed) Update(int) {}
