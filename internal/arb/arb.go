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
	"cmp"
	"math/bits"
	"slices"

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
//
// The priority order is kept as one last-grant timestamp per requestor
// plus a clock: Update stamps the winner with the clock and advances it,
// so the winner's stamp strictly exceeds every other and ascending
// (stamp, index) is exactly the least-recently-granted order, ties
// (requestors never granted) going to the lower index. Update is O(1)
// and Grant is a min-stamp scan over the set bits of the request.
type LRG struct {
	stamp []int64 // stamp[r] is r's last-grant time; lower is higher priority
	clock int64   // the next grant's stamp, above every stamp in use
}

// NewLRG returns an LRG arbiter over n requestors with initial priority
// order 0 > 1 > ... > n-1.
func NewLRG(n int) *LRG {
	l := lrgOver(make([]int64, n))
	return &l
}

// NewLRGs returns count independent LRG arbiters over n requestors each
// (identity initial order), backed by two allocations total instead of
// 2*count: the arbiter structs and their stamp arrays are carved from
// shared slabs. The arbiters share no mutable state.
func NewLRGs(n, count int) []LRG {
	ls := make([]LRG, count)
	stamps := make([]int64, n*count)
	for k := range ls {
		ls[k] = lrgOver(stamps[k*n : (k+1)*n : (k+1)*n])
	}
	return ls
}

// lrgOver returns an identity-order LRG over a zeroed stamp array: every
// requestor is never-granted, so the lower index wins each tie.
func lrgOver(stamp []int64) LRG { return LRG{stamp: stamp, clock: 1} }

// NewLRGFromOrder returns an LRG arbiter with the given initial priority
// order, order[0] highest. The order must be a permutation of [0,len).
func NewLRGFromOrder(order []int) *LRG {
	n := len(order)
	l := &LRG{stamp: make([]int64, n), clock: int64(n) + 1}
	seen := make([]bool, n)
	for i, r := range order {
		if r < 0 || r >= n || seen[r] {
			panic("arb: initial order is not a permutation")
		}
		seen[r] = true
		l.stamp[r] = int64(i) + 1
	}
	return l
}

// N returns the number of requestor slots.
func (l *LRG) N() int { return len(l.stamp) }

// Grant returns the highest-priority requestor among the set bits of
// req, or -1: the set bit with the minimum stamp, found by iterating only
// the set bits — one TrailingZeros64 step per requestor. Bits come in
// ascending order and only a strictly smaller stamp displaces the best,
// so equal stamps go to the lower index.
func (l *LRG) Grant(req bitvec.Vec) int {
	best, bestStamp := -1, l.clock
	for w, word := range req {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if s := l.stamp[i]; s < bestStamp {
				bestStamp, best = s, i
			}
		}
	}
	return best
}

// Update moves winner to the lowest priority position.
func (l *LRG) Update(winner int) {
	l.stamp[winner] = l.clock
	l.clock++
}

// Order returns the current priority order, highest first: the
// requestors sorted by (stamp, index).
func (l *LRG) Order() []int {
	order := make([]int, len(l.stamp))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(l.stamp[a], l.stamp[b]) })
	return order
}

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

// NewRoundRobins returns count independent round-robin arbiters over n
// requestors each, in one allocation.
func NewRoundRobins(n, count int) []RoundRobin {
	rs := make([]RoundRobin, count)
	for k := range rs {
		rs[k].n = n
	}
	return rs
}

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
