package sched

import (
	"fmt"
	"math/bits"

	"github.com/reprolab/hirise/internal/bitvec"
)

// ISLIP is the canonical multi-iteration iSLIP scheduler (McKeown):
// each output keeps a grant pointer, each input an accept pointer, and
// every iteration runs a request→grant→accept round over the ports
// still unmatched.
//
// Pointer discipline — the part the §VII analog deliberately simplifies
// (see arb.RoundRobin) — is what makes iSLIP work:
//
//   - a grant pointer advances to one past the granted input, and an
//     accept pointer to one past the accepted output, ONLY when the
//     grant is accepted;
//   - pointers move only for matches made in the FIRST iteration;
//     later-iteration matches leave them untouched.
//
// Accept-gating is what desynchronizes the pointers: two outputs that
// granted the same input in cycle t cannot both have been accepted, so
// in cycle t+1 their pointers differ and they grant different inputs.
// Under saturated uniform traffic the pointers settle into a rotating
// schedule serving 100% of offered load (TestISLIPDesynchronization).
type ISLIP struct {
	n, iters int
	g        []int // per-output grant pointer
	a        []int // per-input accept pointer

	// Scratch reused across Schedule calls (all zeroed or overwritten
	// before use, so calls are independent):
	col      []bitvec.Vec // transposed requests: inputs per output (bitvec.Transpose)
	grants   []bitvec.Vec // grants received by each input this iteration
	anyGrant bitvec.Vec   // inputs with ≥1 grant this iteration
	cand     bitvec.Vec   // candidate inputs for one output
	freeIn   bitvec.Vec   // inputs not yet matched
	freeOut  bitvec.Vec   // outputs not yet matched
}

// NewISLIP returns an iSLIP scheduler over n ports running iters
// grant/accept iterations per scheduling phase (iters ≥ 1; log2(n) is
// the usual hardware choice, n guarantees a maximal matching).
func NewISLIP(n, iters int) *ISLIP {
	if n <= 0 || iters <= 0 {
		panic(fmt.Sprintf("sched: invalid iSLIP shape n=%d iters=%d", n, iters))
	}
	return &ISLIP{
		n: n, iters: iters,
		g: make([]int, n), a: make([]int, n),
		col: newMatrix(n), grants: newMatrix(n),
		anyGrant: bitvec.New(n), cand: bitvec.New(n),
		freeIn: bitvec.New(n), freeOut: bitvec.New(n),
	}
}

// N implements Scheduler.
func (s *ISLIP) N() int { return s.n }

// Iters returns the configured iteration count.
func (s *ISLIP) Iters() int { return s.iters }

// Schedule implements Scheduler. qlen is ignored (iSLIP is
// weight-blind).
func (s *ISLIP) Schedule(req []bitvec.Vec, _ []int32, match []int) int {
	n := s.n
	bitvec.Transpose(s.col, req, n)
	for in := 0; in < n; in++ {
		match[in] = -1
	}
	s.freeIn.SetFirstN(n)
	s.freeOut.SetFirstN(n)
	matched := 0
	for it := 0; it < s.iters && matched < n; it++ {
		// Grant phase: every unmatched output with unmatched requestors
		// grants the one nearest its grant pointer.
		s.anyGrant.Zero()
		granted := false
		for w, word := range s.freeOut {
			for word != 0 {
				o := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				s.cand.Copy(s.col[o])
				s.cand.And(s.freeIn)
				in := s.cand.NextWrap(s.g[o])
				if in < 0 {
					continue
				}
				s.grants[in].Set(o)
				s.anyGrant.Set(in)
				granted = true
			}
		}
		if !granted {
			break // no progress possible in later iterations either
		}
		// Accept phase: every granted input accepts the grant nearest
		// its accept pointer. Pointers move only here (accept-gated) and
		// only in iteration 0 (canonical iSLIP).
		for w, word := range s.anyGrant {
			for word != 0 {
				in := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				o := s.grants[in].NextWrap(s.a[in])
				s.grants[in].Zero()
				match[in] = o
				matched++
				s.freeIn.Clear(in)
				s.freeOut.Clear(o)
				if it == 0 {
					s.g[o] = in + 1
					if s.g[o] == n {
						s.g[o] = 0
					}
					s.a[in] = o + 1
					if s.a[in] == n {
						s.a[in] = 0
					}
				}
			}
		}
	}
	return matched
}

// Pointers exposes copies of the grant and accept pointer arrays for
// tests (the desynchronization test asserts grant pointers spread out).
func (s *ISLIP) Pointers() (grant, accept []int) {
	return append([]int(nil), s.g...), append([]int(nil), s.a...)
}
