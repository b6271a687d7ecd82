// Package sched implements input-queued crossbar schedulers for the
// virtual-output-queued (VOQ) switch mode (sim.RunVOQ). Where the
// Hi-Rise models arbitrate a single head-of-line request per input, a
// VOQ switch exposes the full N×N request matrix — req[in] is the bitset
// of outputs input in holds cells for — and the scheduler computes one
// crossbar matching per scheduling phase.
//
// The zoo covers the classic trade-off triangle from the iSLIP
// literature (Tiny Tera; "From MWM to iSLIP", PAPERS.md):
//
//   - ISLIP: multi-iteration iSLIP with per-output grant pointers and
//     per-input accept pointers, both advancing only on accepted
//     first-iteration grants (the desynchronization property).
//   - Wavefront: a rotating-priority wavefront allocator sweeping the
//     request matrix's diagonals; always maximal, simple hardware.
//   - MWM: exact maximum-weight matching on queue lengths via the
//     O(n³) Hungarian algorithm — the throughput-optimal reference and
//     the correctness oracle for the fast schedulers' fuzz tests.
//
// Note the distinction from topo.ISLIP1/arb.RoundRobin: that pair is the
// paper's §VII single-iteration iSLIP *analog* grafted onto the Hi-Rise
// two-stage structure. The schedulers here are the real algorithms on a
// flat VOQ crossbar.
//
// All schedulers are deterministic, allocation-free in Schedule, and
// confined to one goroutine.
package sched

import "github.com/reprolab/hirise/internal/bitvec"

// Scheduler computes one crossbar matching per scheduling phase.
type Scheduler interface {
	// N returns the port count (inputs = outputs).
	N() int
	// Schedule computes a matching over the request matrix: req[in] is
	// the bitset of outputs input in has cells queued for (len(req) ≥ N,
	// each row sized for N bits, with every bit at or beyond N zero:
	// iSLIP's transpose and the wavefront's row rotation would read a
	// stray tail bit as a request). qlen, when non-nil, supplies VOQ
	// occupancies in cells at index in*N+out; weight-blind schedulers
	// (ISLIP, Wavefront) ignore it, MWM uses it as the edge weight.
	// The matching is written into match (len ≥ N): match[in] is the
	// output matched to input in, or -1. Schedule returns the number of
	// matched pairs. It must not retain or mutate req or qlen, and hot
	// implementations do not allocate.
	Schedule(req []bitvec.Vec, qlen []int32, match []int) int
}

// newMatrix returns n bitset rows of n bits each.
func newMatrix(n int) []bitvec.Vec {
	m := make([]bitvec.Vec, n)
	for i := range m {
		m[i] = bitvec.New(n)
	}
	return m
}
