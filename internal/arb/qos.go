package arb

// QoS implements the weighted quality-of-service arbitration the
// Swizzle-Switch silicon supports alongside LRG (paper §II cites the
// ISSCC'12/DAC'12 parts, refs [11][15]): each input holds a programmable
// weight and receives a proportional share of the output's bandwidth
// under contention. The implementation is a smoothed weighted
// round-robin: requestors accrue credit by weight, the richest requestor
// wins (LRG breaking ties), and a win spends the aggregate weight.
//
// QoS does not satisfy the Arbiter interface: its Update needs the
// request mask to know who accrued credit, so the crossbar integrates it
// through NewQoSCrossbarArbiters.
type QoS struct {
	weights []int
	credit  []int64
	lrg     *LRG
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
	}
}

// N returns the number of requestor slots.
func (q *QoS) N() int { return len(q.weights) }

// Grant returns the requestor with the most credit among req, breaking
// ties by LRG. State is not modified.
func (q *QoS) Grant(req []bool) int {
	best := int64(-1 << 62)
	for i, r := range req {
		if r && q.credit[i] > best {
			best = q.credit[i]
		}
	}
	winner := -1
	for _, i := range q.lrg.Order() {
		if req[i] && q.credit[i] == best {
			winner = i
			break
		}
	}
	return winner
}

// Commit records one arbitration round: every requestor accrues its
// weight, and the winner (if any) pays the total accrued this round, so
// long-run shares under backlog converge to the weight ratios.
func (q *QoS) Commit(req []bool, winner int) {
	var total int64
	for i, r := range req {
		if r {
			q.credit[i] += int64(q.weights[i])
			total += int64(q.weights[i])
		}
	}
	if winner >= 0 {
		q.credit[winner] -= total
		q.lrg.Update(winner)
	}
}

// qosAdapter exposes a QoS arbiter through the Arbiter interface by
// remembering the last granted request mask. Grant/Update must be called
// in the crossbar's strict grant-then-update order.
type qosAdapter struct {
	q       *QoS
	lastReq []bool
	granted bool
}

// NewQoSArbiter wraps weights into an Arbiter usable by
// crossbar.NewWithArbiters. Each output gets its own instance.
func NewQoSArbiter(weights []int) Arbiter {
	return &qosAdapter{q: NewQoS(weights), lastReq: make([]bool, len(weights))}
}

// N returns the number of requestor slots.
func (a *qosAdapter) N() int { return a.q.N() }

// Grant snapshots the request mask and returns the QoS winner. A round
// with no winner still accrues credit, committed lazily at the next
// Grant.
func (a *qosAdapter) Grant(req []bool) int {
	if a.granted {
		// Previous round ended without an Update: nobody won, but the
		// requestors still accrued credit.
		a.q.Commit(a.lastReq, -1)
	}
	copy(a.lastReq, req)
	a.granted = true
	return a.q.Grant(req)
}

// Update commits the winner for the mask captured at Grant.
func (a *qosAdapter) Update(winner int) {
	a.q.Commit(a.lastReq, winner)
	a.granted = false
}
