package arb

import (
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
)

// QoS implements the weighted quality-of-service arbitration the
// Swizzle-Switch silicon supports alongside LRG (paper §II cites the
// ISSCC'12/DAC'12 parts, refs [11][15]): each input holds a programmable
// weight and receives a proportional share of the output's bandwidth
// under contention. The implementation is a smoothed weighted
// round-robin: requestors accrue credit by weight, the richest requestor
// wins (ties go to the highest LRG priority), and a win spends the
// aggregate weight.
//
// Crediting needs the round's request set at Update time, so Grant keeps
// a bitset snapshot of it. A round that ends without Update (no winner,
// or a winner the caller does not take) is committed as winnerless at
// the next Grant: its requestors still accrue credit.
type QoS struct {
	weights []int
	credit  []int64
	lrg     *LRG
	last    bitvec.Vec // requestors of the round in progress
	open    bool       // Grant ran since the last Update
}

// NewQoS returns a QoS arbiter with the given per-requestor weights
// (all must be positive).
func NewQoS(weights []int) *QoS {
	for _, w := range weights {
		if w <= 0 {
			panic("arb: QoS weights must be positive")
		}
	}
	return &QoS{
		weights: append([]int(nil), weights...),
		credit:  make([]int64, len(weights)),
		lrg:     NewLRG(len(weights)),
		last:    bitvec.New(len(weights)),
	}
}

// N returns the number of requestor slots.
func (q *QoS) N() int { return len(q.weights) }

// Grant opens a round over the set bits of req, committing the previous
// round as winnerless if no Update closed it, and returns the requestor
// with the most credit, or -1 if none is set.
func (q *QoS) Grant(req bitvec.Vec) int {
	if q.open {
		q.commit(-1)
	}
	q.last.Copy(req)
	q.open = true
	winner, best, bestStamp := -1, int64(0), int64(0)
	for w, word := range req {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			c, st := q.credit[i], q.lrg.stamp[i]
			if winner < 0 || c > best || c == best && st < bestStamp {
				winner, best, bestStamp = i, c, st
			}
		}
	}
	return winner
}

// Update commits winner for the round the last Grant opened.
func (q *QoS) Update(winner int) { q.commit(winner) }

// commit closes the round: every requestor accrues its weight, and the
// winner (if any) pays the total accrued this round, so long-run shares
// under backlog converge to the weight ratios.
func (q *QoS) commit(winner int) {
	var total int64
	for w, word := range q.last {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			q.credit[i] += int64(q.weights[i])
			total += int64(q.weights[i])
		}
	}
	if winner >= 0 {
		q.credit[winner] -= total
		q.lrg.Update(winner)
	}
	q.open = false
}
