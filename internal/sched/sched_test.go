package sched

import (
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/prng"
)

// reqMatrix builds an n×n request matrix from explicit (in, out) pairs.
func reqMatrix(n int, edges [][2]int) []bitvec.Vec {
	m := newMatrix(n)
	for _, e := range edges {
		m[e[0]].Set(e[1])
	}
	return m
}

// checkValid asserts match is a valid matching over req: every matched
// pair was requested and no input or output appears twice.
func checkValid(t *testing.T, req []bitvec.Vec, match []int, n int) {
	t.Helper()
	outSeen := make([]bool, n)
	for in := 0; in < n; in++ {
		o := match[in]
		if o < 0 {
			continue
		}
		if !req[in].Get(o) {
			t.Fatalf("match %d->%d was never requested", in, o)
		}
		if outSeen[o] {
			t.Fatalf("output %d matched twice", o)
		}
		outSeen[o] = true
	}
}

// checkMaximal asserts no request has both endpoints unmatched.
func checkMaximal(t *testing.T, req []bitvec.Vec, match []int, n int) {
	t.Helper()
	outSeen := make([]bool, n)
	for in := 0; in < n; in++ {
		if match[in] >= 0 {
			outSeen[match[in]] = true
		}
	}
	for in := 0; in < n; in++ {
		if match[in] >= 0 {
			continue
		}
		req[in].ForEach(func(o int) {
			if !outSeen[o] {
				t.Fatalf("not maximal: request %d->%d has both endpoints free", in, o)
			}
		})
	}
}

// matchWeight sums the queue-length weights of a matching (weight 1 per
// edge when qlen is nil).
func matchWeight(match []int, qlen []int32, n int) int64 {
	var w int64
	for in, o := range match[:n] {
		if o < 0 {
			continue
		}
		if qlen == nil {
			w++
		} else {
			q := int64(qlen[in*n+o])
			if q < 1 {
				q = 1
			}
			w += q
		}
	}
	return w
}

// checkMWMCertificate checks the LP-duality certificate the Hungarian
// solver leaves behind after Schedule. Its row and column potentials
// must be dual-feasible (u[i] + v[j] ≤ cost[i][j] for every i, j) and
// sum to the cost of its assignment p; by weak duality that proves the
// assignment optimal, independently of the solver's own logic. The
// negated assignment cost must then be the emitted matching's weight.
func checkMWMCertificate(t *testing.T, s *MWM, match []int, qlen []int32) {
	t.Helper()
	n := s.n
	var dual, primal int64
	for k := 1; k <= n; k++ {
		dual += s.u[k] + s.v[k]
		primal += s.cost[(s.p[k]-1)*n+(k-1)]
	}
	if dual != primal {
		t.Fatalf("MWM potentials sum to %d, assignment cost is %d", dual, primal)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if c := s.cost[(i-1)*n+(j-1)]; s.u[i]+s.v[j] > c {
				t.Fatalf("MWM potentials infeasible at (%d,%d): u+v = %d > cost %d", i-1, j-1, s.u[i]+s.v[j], c)
			}
		}
	}
	if w := matchWeight(match, qlen, n); -primal != w {
		t.Fatalf("MWM assignment cost %d, matching weight %d", primal, w)
	}
}

// randomReq fills an n×n request matrix with density p and, optionally,
// random queue lengths on the requested edges.
func randomReq(src *prng.Source, m []bitvec.Vec, qlen []int32, n int, p float64) {
	for i := 0; i < n; i++ {
		m[i].Zero()
		for j := 0; j < n; j++ {
			if qlen != nil {
				qlen[i*n+j] = 0
			}
			if src.Bernoulli(p) {
				m[i].Set(j)
				if qlen != nil {
					qlen[i*n+j] = int32(1 + src.Intn(31))
				}
			}
		}
	}
}

// allSchedulers returns fresh instances of every scheduler for a given
// port count (iSLIP at 1, 2 and n iterations).
func allSchedulers(n int) map[string]Scheduler {
	return map[string]Scheduler{
		"islip-1":   NewISLIP(n, 1),
		"islip-2":   NewISLIP(n, 2),
		"islip-n":   NewISLIP(n, n),
		"wavefront": NewWavefront(n),
		"mwm":       NewMWM(n),
	}
}

// TestSchedulersValidOnRandom drives every scheduler over random request
// matrices at several sizes and densities: every emitted matching must
// be valid, and the always-maximal schedulers (wavefront, iSLIP at n
// iterations, MWM) must be maximal.
func TestSchedulersValidOnRandom(t *testing.T) {
	src := prng.New(99)
	for _, n := range []int{1, 2, 5, 13, 64, 65} {
		req := newMatrix(n)
		qlen := make([]int32, n*n)
		match := make([]int, n)
		for name, s := range allSchedulers(n) {
			for trial := 0; trial < 30; trial++ {
				randomReq(src, req, qlen, n, 0.3)
				got := s.Schedule(req, qlen, match)
				cnt := 0
				for _, o := range match {
					if o >= 0 {
						cnt++
					}
				}
				if cnt != got {
					t.Fatalf("%s n=%d: returned %d but match holds %d pairs", name, n, got, cnt)
				}
				checkValid(t, req, match, n)
				if name == "wavefront" || name == "islip-n" || name == "mwm" {
					checkMaximal(t, req, match, n)
				}
			}
		}
	}
}

// TestSchedulersEmptyAndFull pins the two degenerate matrices: no
// requests matches nothing; all-ones requests must yield a perfect
// matching from every maximal scheduler.
func TestSchedulersEmptyAndFull(t *testing.T) {
	const n = 64
	empty := newMatrix(n)
	full := newMatrix(n)
	for i := 0; i < n; i++ {
		full[i].SetFirstN(n)
	}
	match := make([]int, n)
	for name, s := range allSchedulers(n) {
		if got := s.Schedule(empty, nil, match); got != 0 {
			t.Fatalf("%s matched %d on empty requests", name, got)
		}
		got := s.Schedule(full, nil, match)
		checkValid(t, full, match, n)
		switch name {
		case "wavefront", "islip-n", "mwm":
			if got != n {
				t.Fatalf("%s matched %d/%d on all-ones requests", name, got, n)
			}
		default:
			if got < 1 {
				t.Fatalf("%s matched nothing on all-ones requests", name)
			}
		}
	}
}

// TestMWMPrefersHeavyQueues pins the weight-awareness that separates
// MWM from the weight-blind schedulers: with a conflict where one edge
// carries far more queued cells, MWM must take the heavy edge.
func TestMWMPrefersHeavyQueues(t *testing.T) {
	const n = 4
	// Edges: 0->0 (weight 30), 0->1 (1), 1->0 (1). The candidate
	// matchings are {0->0} with weight 30 and {0->1, 1->0} with weight 2
	// — more edges, less weight. MWM must take the heavy single edge; a
	// maximum-cardinality scheduler would take the pair.
	req := reqMatrix(n, [][2]int{{0, 0}, {0, 1}, {1, 0}})
	qlen := make([]int32, n*n)
	qlen[0*n+0] = 30
	qlen[0*n+1] = 1
	qlen[1*n+0] = 1
	match := make([]int, n)
	s := NewMWM(n)
	if got := s.Schedule(req, qlen, match); got != 1 {
		t.Fatalf("matched %d pairs, want 1 (the heavy edge)", got)
	}
	if match[0] != 0 || match[1] != -1 {
		t.Fatalf("MWM took %v, want only the heavy edge 0->0", match[:2])
	}
}

// TestMWMMatchesBruteForce checks MWM's total weight against exhaustive
// search over all matchings at small n.
func TestMWMMatchesBruteForce(t *testing.T) {
	src := prng.New(5)
	const n = 5
	req := newMatrix(n)
	qlen := make([]int32, n*n)
	match := make([]int, n)
	s := NewMWM(n)
	for trial := 0; trial < 200; trial++ {
		randomReq(src, req, qlen, n, 0.4)
		s.Schedule(req, qlen, match)
		checkValid(t, req, match, n)
		checkMWMCertificate(t, s, match, qlen)
		got := matchWeight(match, qlen, n)
		want := bruteMaxWeight(req, qlen, n)
		if got != want {
			t.Fatalf("trial %d: MWM weight %d, brute force %d", trial, got, want)
		}
	}
}

// bruteMaxWeight finds the maximum matching weight by trying every
// assignment of inputs to outputs recursively.
func bruteMaxWeight(req []bitvec.Vec, qlen []int32, n int) int64 {
	outUsed := make([]bool, n)
	var rec func(in int) int64
	rec = func(in int) int64 {
		if in == n {
			return 0
		}
		best := rec(in + 1) // leave input unmatched
		req[in].ForEach(func(o int) {
			if outUsed[o] {
				return
			}
			outUsed[o] = true
			w := int64(qlen[in*n+o])
			if w < 1 {
				w = 1
			}
			if got := w + rec(in+1); got > best {
				best = got
			}
			outUsed[o] = false
		})
		return best
	}
	return rec(0)
}

// TestISLIPDesynchronization is the satellite-1 acceptance test: under
// saturated uniform traffic (every VOQ non-empty, so the request matrix
// is all-ones) the accept-gated pointers desynchronize within a short
// warmup, after which every cycle is a perfect matching — 100%
// throughput — and the grant pointers form a rotating permutation.
func TestISLIPDesynchronization(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		s := NewISLIP(n, 1)
		full := newMatrix(n)
		for i := 0; i < n; i++ {
			full[i].SetFirstN(n)
		}
		match := make([]int, n)
		// Warmup: iSLIP-1 needs at most n cycles to desynchronize from
		// the synchronized all-zero pointer state.
		for c := 0; c < 2*n; c++ {
			s.Schedule(full, nil, match)
		}
		for c := 0; c < 4*n; c++ {
			if got := s.Schedule(full, nil, match); got != n {
				t.Fatalf("n=%d cycle %d: matched %d/%d after warmup (pointers not desynchronized)",
					n, c, got, n)
			}
			checkValid(t, full, match, n)
		}
		// Desynchronized grant pointers are pairwise distinct: each
		// output serves a different input each cycle.
		g, _ := s.Pointers()
		seen := make([]bool, n)
		for _, p := range g {
			if seen[p] {
				t.Fatalf("n=%d: grant pointers %v not desynchronized", n, g)
			}
			seen[p] = true
		}
	}
}

// TestISLIPPointersAcceptGated pins the pointer discipline directly: an
// output whose grant is NOT accepted must keep its pointer (the analog
// arb.RoundRobin.Update deliberately advances unconditionally; see the
// §VII comment there).
func TestISLIPPointersAcceptGated(t *testing.T) {
	const n = 4
	s := NewISLIP(n, 1)
	// Outputs 0 and 1 both grant input 0 (their only requestor); input 0
	// accepts output 0 (accept pointer at 0). Output 1's grant pointer
	// must not move.
	req := reqMatrix(n, [][2]int{{0, 0}, {0, 1}})
	match := make([]int, n)
	s.Schedule(req, nil, match)
	if match[0] != 0 {
		t.Fatalf("input 0 accepted %d, want output 0", match[0])
	}
	g, a := s.Pointers()
	if g[0] != 1 {
		t.Errorf("accepted output 0 grant pointer = %d, want 1", g[0])
	}
	if g[1] != 0 {
		t.Errorf("unaccepted output 1 grant pointer = %d, want 0 (accept-gated)", g[1])
	}
	if a[0] != 1 {
		t.Errorf("input 0 accept pointer = %d, want 1", a[0])
	}
}

// TestISLIPLaterIterationsFreezePointers pins the second half of the
// discipline: matches made after iteration 1 leave both pointer arrays
// untouched.
func TestISLIPLaterIterationsFreezePointers(t *testing.T) {
	const n = 4
	// Iteration 1: outputs 0 and 1 both grant input 0; input 0 takes
	// output 0. Iteration 2: output 1 grants input 1 (its other
	// requestor), which accepts — but pointers must not move for that
	// match.
	s := NewISLIP(n, 2)
	req := reqMatrix(n, [][2]int{{0, 0}, {0, 1}, {1, 1}})
	// Make output 1's pointer prefer input 0 so iteration 1 grants 0.
	match := make([]int, n)
	s.Schedule(req, nil, match)
	if match[0] != 0 || match[1] != 1 {
		t.Fatalf("match = %v, want input0->out0, input1->out1", match)
	}
	g, a := s.Pointers()
	if g[1] != 0 {
		t.Errorf("output 1 granted in iteration 2; grant pointer = %d, want 0", g[1])
	}
	if a[1] != 0 {
		t.Errorf("input 1 matched in iteration 2; accept pointer = %d, want 0", a[1])
	}
}

// TestWavefrontRotatesPriority pins that the starting diagonal rotates:
// with two inputs contending for one output, consecutive phases serve
// different inputs.
func TestWavefrontRotatesPriority(t *testing.T) {
	const n = 2
	s := NewWavefront(n)
	req := reqMatrix(n, [][2]int{{0, 0}, {1, 0}})
	match := make([]int, n)
	winners := make(map[int]int)
	for c := 0; c < 4; c++ {
		s.Schedule(req, nil, match)
		for in, o := range match {
			if o == 0 {
				winners[in]++
			}
		}
	}
	if winners[0] != 2 || winners[1] != 2 {
		t.Fatalf("wavefront winners over 4 phases = %v, want 2 each", winners)
	}
}

// TestScheduleZeroAllocs pins the hot loops at 0 allocs/op on both
// sides of each word boundary, from one port to three words.
func TestScheduleZeroAllocs(t *testing.T) {
	src := prng.New(11)
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		req := newMatrix(n)
		qlen := make([]int32, n*n)
		match := make([]int, n)
		randomReq(src, req, qlen, n, 0.3)
		for name, s := range allSchedulers(n) {
			s := s
			if avg := testing.AllocsPerRun(10, func() {
				s.Schedule(req, qlen, match)
			}); avg != 0 {
				t.Errorf("%s n=%d: %.1f allocs/op, want 0", name, n, avg)
			}
		}
	}
}

// BenchmarkSchedule times one matching per op over a fixed ~25% dense
// request matrix with queue-length weights; hirise-bench -perf runs the
// same workload as its sched/* rows.
func BenchmarkSchedule(b *testing.B) {
	for _, n := range []int{64, 128} {
		for _, sc := range []struct {
			name string
			s    Scheduler
		}{{"ISLIP2", NewISLIP(n, 2)}, {"Wavefront", NewWavefront(n)}} {
			src := prng.New(7)
			req := newMatrix(n)
			qlen := make([]int32, n*n)
			match := make([]int, n)
			for i := range req {
				for o := 0; o < n; o++ {
					if src.Bernoulli(0.25) {
						req[i].Set(o)
						qlen[i*n+o] = int32(1 + src.Intn(8))
					}
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc.s.Schedule(req, qlen, match)
				}
			})
		}
	}
}
