package sched

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
)

// Wavefront is a rotating-priority wavefront allocator: the n diagonals
// of the request matrix are swept in order, and within a diagonal every
// cell touches a distinct input and a distinct output, so all requests
// on it can be matched without conflict (in hardware, in one combinational
// wave). Sweeping all n diagonals examines every request exactly once,
// which makes the matching maximal by construction; rotating the
// starting diagonal each phase removes the static bias toward the
// first-swept cells.
//
// The software wave is as parallel as the hardware one. Schedule
// rotates request row i right by i and transposes the result, so word
// d of the transpose is diagonal d as a bitset over inputs (bit i is
// the cell (i, (i+d) mod n)). One wave is then a handful of word
// operations per 64 cells: the diagonal masked by the free inputs and
// by the free outputs rotated onto the diagonal's inputs.
type Wavefront struct {
	n int
	p int // starting diagonal, rotated every Schedule call

	// Scratch reused across Schedule calls (overwritten before use):
	rot     []bitvec.Vec // rot[i] = request row i rotated right by i
	diag    []bitvec.Vec // diag[d] bit i = request (i, (i+d) mod n)
	freeIn  bitvec.Vec   // inputs not yet matched
	freeOut bitvec.Vec   // outputs not yet matched
	cells   bitvec.Vec   // this wave's matches, by input
	outRot  bitvec.Vec   // freeOut rotated onto a diagonal's inputs
}

// NewWavefront returns a wavefront allocator over n ports.
func NewWavefront(n int) *Wavefront {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid wavefront shape n=%d", n))
	}
	return &Wavefront{
		n: n, rot: newMatrix(n), diag: newMatrix(n),
		freeIn: bitvec.New(n), freeOut: bitvec.New(n),
		cells: bitvec.New(n), outRot: bitvec.New(n),
	}
}

// N implements Scheduler.
func (s *Wavefront) N() int { return s.n }

// Schedule implements Scheduler. qlen is ignored (the wavefront is
// weight-blind).
func (s *Wavefront) Schedule(req []bitvec.Vec, _ []int32, match []int) int {
	n := s.n
	for i := 0; i < n; i++ {
		match[i] = -1
		s.rot[i].RotateRight(req[i], i, n)
	}
	bitvec.Transpose(s.diag, s.rot, n)
	s.freeIn.SetFirstN(n)
	s.freeOut.SetFirstN(n)
	matched := 0
	for wave := 0; wave < n && matched < n; wave++ {
		d := s.p + wave
		if d >= n {
			d -= n
		}
		// cells = diag[d] & freeIn & rotr(freeOut, d): input i's bit in
		// the rotated freeOut is output (i+d) mod n.
		s.cells.Copy(s.diag[d])
		s.cells.And(s.freeIn)
		s.outRot.RotateRight(s.freeOut, d, n)
		s.cells.And(s.outRot)
		// The cells touch distinct inputs and distinct outputs, so all
		// of them match at once. Writing match visits each cell anyway,
		// and clears its output there: cheaper than rotating the cells
		// back by d to clear the outputs as one word operation.
		s.freeIn.AndNot(s.cells)
		for w, word := range s.cells {
			for word != 0 {
				i := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				j := i + d
				if j >= n {
					j -= n
				}
				match[i] = j
				matched++
				s.freeOut.Clear(j)
			}
		}
	}
	if s.p++; s.p == n {
		s.p = 0
	}
	return matched
}
