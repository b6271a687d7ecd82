package arb

import (
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
)

// Matrix is the literal hardware formulation of LRG: an antisymmetric
// matrix of priority bits, one per requestor pair, exactly as stored in
// the Swizzle-Switch cross-points (paper §II-A). Row i is a bitset:
// bit j of beats[i] means i has priority over j for this output, so a
// whole row of pull-down transistors evaluates as one word operation —
// the same bit-parallelism the silicon gets from its precharged
// priority lines.
//
// Matrix exists as a second, independent implementation of the same
// policy; property tests check it agrees with the list-based LRG on every
// request pattern, which is how we gain confidence that LRG models the
// silicon behaviour.
type Matrix struct {
	n     int
	beats []bitvec.Vec // row i: the set of requestors i beats

	// Scratch, reused per Grant (like the hardware's precharged lines).
	inhibited bitvec.Vec
	reqBits   bitvec.Vec // adapter scratch for the []bool Grant
}

// NewMatrix returns a matrix LRG arbiter with initial priority order
// 0 > 1 > ... > n-1.
func NewMatrix(n int) *Matrix {
	m := &Matrix{
		n:         n,
		beats:     make([]bitvec.Vec, n),
		inhibited: bitvec.New(n),
		reqBits:   bitvec.New(n),
	}
	for i := range m.beats {
		m.beats[i] = bitvec.New(n)
		for j := i + 1; j < n; j++ {
			m.beats[i].Set(j)
		}
	}
	return m
}

// NewMatrixFromOrder returns a matrix arbiter encoding the given priority
// order, order[0] highest.
func NewMatrixFromOrder(order []int) *Matrix {
	m := NewMatrix(len(order))
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			m.beats[order[i]].Set(order[j])
			m.beats[order[j]].Clear(order[i])
		}
	}
	return m
}

// N returns the number of requestor slots.
func (m *Matrix) N() int { return m.n }

// Grant returns the requestor that no other requestor beats: in hardware,
// the one whose priority line is not pulled down by anyone.
func (m *Matrix) Grant(req []bool) int {
	m.reqBits.FromBools(req)
	return m.GrantBits(m.reqBits)
}

// GrantBits is Grant on the bitset request view: the union of the
// requestors' rows is the set of pulled-down lines, and the winner is
// the lowest requestor whose own line stayed high — one masked
// AND-NOT per word.
func (m *Matrix) GrantBits(req bitvec.Vec) int {
	inh := m.inhibited
	inh.Zero()
	for w, word := range req {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			inh.Or(m.beats[j])
		}
	}
	for w, word := range req {
		if rem := word &^ inh[w]; rem != 0 {
			return w<<6 | bits.TrailingZeros64(rem)
		}
	}
	return -1
}

// Update clears the winner's row and sets its column: the winner now loses
// to everyone (least recently granted).
func (m *Matrix) Update(winner int) {
	m.beats[winner].Zero()
	for j := 0; j < m.n; j++ {
		if j != winner {
			m.beats[j].Set(winner)
		}
	}
}

// WellFormed reports whether the matrix encodes a strict total order:
// antisymmetric and transitive. Used by property tests.
func (m *Matrix) WellFormed() bool {
	for i := 0; i < m.n; i++ {
		if m.beats[i].Get(i) {
			return false
		}
		for j := 0; j < m.n; j++ {
			if i != j && m.beats[i].Get(j) == m.beats[j].Get(i) {
				return false
			}
		}
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			for k := 0; k < m.n; k++ {
				if m.beats[i].Get(j) && m.beats[j].Get(k) && i != k && !m.beats[i].Get(k) {
					return false
				}
			}
		}
	}
	return true
}
