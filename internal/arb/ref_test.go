package arb

import "github.com/reprolab/hirise/internal/bitvec"

// The references below are the per-requestor []bool formulations the
// arbiters had before requests became bitsets, kept verbatim as test
// oracles. The fuzzers in fuzz_test.go drive each arbiter's bitset Grant
// and its reference with the same request and update streams and demand
// the same winners.

// fill overwrites v with the set entries of req.
func fill(v bitvec.Vec, req []bool) {
	v.Zero()
	for i, r := range req {
		if r {
			v.Set(i)
		}
	}
}

// refLRG is LRG as an explicit priority list, the form it had before it
// kept timestamps: order[0] is the highest-priority requestor, pos[r] is
// r's index within order, and Update splices the winner to the end.
type refLRG struct {
	order []int
	pos   []int
}

func newRefLRG(n int) *refLRG {
	l := &refLRG{order: make([]int, n), pos: make([]int, n)}
	for i := range l.order {
		l.order[i], l.pos[i] = i, i
	}
	return l
}

func (l *refLRG) grant(req []bool) int { return refOrderGrant(l.order, req) }

func (l *refLRG) update(winner int) {
	i := l.pos[winner]
	copy(l.order[i:], l.order[i+1:])
	l.order[len(l.order)-1] = winner
	for j := i; j < len(l.order); j++ {
		l.pos[l.order[j]] = j
	}
}

// refOrderGrant is LRG's order-list scan: the first requestor in the
// priority order wins.
func refOrderGrant(order []int, req []bool) int {
	for _, r := range order {
		if req[r] {
			return r
		}
	}
	return -1
}

// refRoundRobinGrant scans cyclically from the pointer.
func refRoundRobinGrant(r *RoundRobin, req []bool) int {
	for i := 0; i < r.n; i++ {
		c := (r.next + i) % r.n
		if req[c] {
			return c
		}
	}
	return -1
}

// refFixedGrant picks the lowest requesting index.
func refFixedGrant(req []bool) int {
	for i, r := range req {
		if r {
			return i
		}
	}
	return -1
}

// refCLRGGrant finds the best (lowest) class among the requesting lines,
// then the first line of that class in LRG order.
func refCLRGGrant(c *CLRG, req []bool, inputOf []int) int {
	best := -1
	for line, r := range req {
		if cl := c.Class(inputOf[line]); r && (best < 0 || cl < best) {
			best = cl
		}
	}
	for _, line := range c.LineOrder() {
		if req[line] && c.Class(inputOf[line]) == best {
			return line
		}
	}
	return -1
}

// boolMatrix is the pre-bitset Matrix: a nested [][]bool beats table, a
// per-requestor inhibition scan, and an ascending winner search.
type boolMatrix struct {
	n     int
	beats [][]bool
}

func newBoolMatrix(n int) *boolMatrix {
	m := &boolMatrix{n: n, beats: make([][]bool, n)}
	for i := range m.beats {
		m.beats[i] = make([]bool, n)
		for j := i + 1; j < n; j++ {
			m.beats[i][j] = true
		}
	}
	return m
}

func (m *boolMatrix) grant(req []bool) int {
	for i := 0; i < m.n; i++ {
		if !req[i] {
			continue
		}
		inhibited := false
		for j := 0; j < m.n; j++ {
			if j != i && req[j] && m.beats[j][i] {
				inhibited = true
				break
			}
		}
		if !inhibited {
			return i
		}
	}
	return -1
}

func (m *boolMatrix) update(winner int) {
	for j := 0; j < m.n; j++ {
		m.beats[winner][j] = false
		if j != winner {
			m.beats[j][winner] = true
		}
	}
}

// refQoS is QoS as it was before it implemented Arbiter: a []bool
// Grant and Commit, wrapped by an adapter that remembers the last
// granted request mask and commits a round without Update lazily, as
// winnerless, at the next Grant. It keeps its own credit and list-LRG
// state.
type refQoS struct {
	weights []int
	credit  []int64
	lrg     *refLRG
	lastReq []bool
	granted bool
}

func newRefQoS(weights []int) *refQoS {
	return &refQoS{
		weights: append([]int(nil), weights...),
		credit:  make([]int64, len(weights)),
		lrg:     newRefLRG(len(weights)),
		lastReq: make([]bool, len(weights)),
	}
}

func (q *refQoS) grant(req []bool) int {
	if q.granted {
		q.commit(q.lastReq, -1)
	}
	copy(q.lastReq, req)
	q.granted = true
	best := int64(-1 << 62)
	for i, r := range req {
		if r && q.credit[i] > best {
			best = q.credit[i]
		}
	}
	for _, i := range q.lrg.order {
		if req[i] && q.credit[i] == best {
			return i
		}
	}
	return -1
}

func (q *refQoS) update(winner int) {
	q.commit(q.lastReq, winner)
	q.granted = false
}

func (q *refQoS) commit(req []bool, winner int) {
	var total int64
	for i, r := range req {
		if r {
			q.credit[i] += int64(q.weights[i])
			total += int64(q.weights[i])
		}
	}
	if winner >= 0 {
		q.credit[winner] -= total
		q.lrg.update(winner)
	}
}
