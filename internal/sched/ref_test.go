package sched

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/prng"
)

// This file keeps the bit-at-a-time schedulers the word-parallel
// kernels replaced, as the reference oracle they must reproduce exactly:
// the same matching, the same count and the same pointer state after
// every call (TestSchedulersMatchReference, FuzzSchedulersMatchReference).

// refTranspose scatters the row bitsets req[0..n) into the column
// bitsets col[0..n) one Set per request: col[out] holds the inputs
// requesting out.
func refTranspose(req []bitvec.Vec, col []bitvec.Vec, n int) {
	for o := 0; o < n; o++ {
		col[o].Zero()
	}
	for in := 0; in < n; in++ {
		for w, word := range req[in] {
			for word != 0 {
				o := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				col[o].Set(in)
			}
		}
	}
}

// refISLIP is ISLIP over refTranspose, with the same grant and accept
// loops and pointer discipline.
type refISLIP struct {
	n, iters int
	g, a     []int
	col      []bitvec.Vec
	grants   []bitvec.Vec
	anyGrant bitvec.Vec
	cand     bitvec.Vec
	freeIn   bitvec.Vec
	freeOut  bitvec.Vec
}

func newRefISLIP(n, iters int) *refISLIP {
	return &refISLIP{
		n: n, iters: iters,
		g: make([]int, n), a: make([]int, n),
		col: newMatrix(n), grants: newMatrix(n),
		anyGrant: bitvec.New(n), cand: bitvec.New(n),
		freeIn: bitvec.New(n), freeOut: bitvec.New(n),
	}
}

func (s *refISLIP) Schedule(req []bitvec.Vec, match []int) int {
	n := s.n
	refTranspose(req, s.col, n)
	for in := 0; in < n; in++ {
		match[in] = -1
	}
	s.freeIn.SetFirstN(n)
	s.freeOut.SetFirstN(n)
	matched := 0
	for it := 0; it < s.iters && matched < n; it++ {
		s.anyGrant.Zero()
		granted := false
		for o := 0; o < n; o++ {
			if !s.freeOut.Get(o) {
				continue
			}
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
		if !granted {
			break
		}
		for in := 0; in < n; in++ {
			if !s.anyGrant.Get(in) {
				continue
			}
			o := s.grants[in].NextWrap(s.a[in])
			s.grants[in].Zero()
			match[in] = o
			matched++
			s.freeIn.Clear(in)
			s.freeOut.Clear(o)
			if it == 0 {
				s.g[o] = (in + 1) % n
				s.a[in] = (o + 1) % n
			}
		}
	}
	return matched
}

// refWavefront is Wavefront testing one cell per pair of Gets: each
// wave scans the free inputs of diagonal d in ascending order.
type refWavefront struct {
	n, p    int
	freeIn  bitvec.Vec
	freeOut bitvec.Vec
}

func newRefWavefront(n int) *refWavefront {
	return &refWavefront{n: n, freeIn: bitvec.New(n), freeOut: bitvec.New(n)}
}

func (s *refWavefront) Schedule(req []bitvec.Vec, match []int) int {
	n := s.n
	for in := 0; in < n; in++ {
		match[in] = -1
	}
	s.freeIn.SetFirstN(n)
	s.freeOut.SetFirstN(n)
	matched := 0
	for wave := 0; wave < n && matched < n; wave++ {
		d := (s.p + wave) % n
		for i := 0; i < n; i++ {
			j := (i + d) % n
			if s.freeIn.Get(i) && s.freeOut.Get(j) && req[i].Get(j) {
				match[i] = j
				matched++
				s.freeIn.Clear(i)
				s.freeOut.Clear(j)
			}
		}
	}
	s.p = (s.p + 1) % n
	return matched
}

// checkAgainstReference drives the word-parallel iSLIP (1, 2 and n
// iterations) and wavefront side by side with their references for the
// given number of rounds of random requests at density p, and fails on
// the first difference in match, count, iSLIP pointers or the
// wavefront's start diagonal.
func checkAgainstReference(t *testing.T, src *prng.Source, n, rounds int, p float64) {
	t.Helper()
	type pair struct {
		name      string
		fast      Scheduler
		ref       func([]bitvec.Vec, []int) int
		sameState func() bool
	}
	var pairs []pair
	for _, iters := range []int{1, 2, n} {
		fast, ref := NewISLIP(n, iters), newRefISLIP(n, iters)
		pairs = append(pairs, pair{fmt.Sprintf("islip-%d", iters), fast, ref.Schedule, func() bool {
			g, a := fast.Pointers()
			return slices.Equal(g, ref.g) && slices.Equal(a, ref.a)
		}})
	}
	fw, rw := NewWavefront(n), newRefWavefront(n)
	pairs = append(pairs, pair{"wavefront", fw, rw.Schedule, func() bool { return fw.p == rw.p }})

	req := newMatrix(n)
	got, want := make([]int, n), make([]int, n)
	for r := 0; r < rounds; r++ {
		randomReq(src, req, nil, n, p)
		for _, pr := range pairs {
			gc, wc := pr.fast.Schedule(req, nil, got), pr.ref(req, want)
			if gc != wc || !slices.Equal(got, want) {
				t.Fatalf("%s n=%d round %d: matched %d %v, reference %d %v", pr.name, n, r, gc, got, wc, want)
			}
			if !pr.sameState() {
				t.Fatalf("%s n=%d round %d: scheduler state diverged from the reference", pr.name, n, r)
			}
		}
	}
}

// TestSchedulersMatchReference pins the word-parallel kernels to the
// bit-at-a-time references on port counts around each word boundary,
// at sparse, medium and full request densities, over n+2 rounds so the
// wavefront's start diagonal wraps.
func TestSchedulersMatchReference(t *testing.T) {
	src := prng.New(2026)
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 130} {
		for _, p := range []float64{0.02, 0.3, 0.8, 1} {
			checkAgainstReference(t, src, n, n+2, p)
		}
	}
}

// FuzzSchedulersMatchReference is the differential fuzz of the same
// check over port counts 1..200 (up to four words per row).
func FuzzSchedulersMatchReference(f *testing.F) {
	f.Add(uint64(1), uint8(63), uint8(64), uint8(5))
	f.Add(uint64(2), uint8(64), uint8(200), uint8(3))
	f.Add(uint64(3), uint8(129), uint8(20), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density, rounds uint8) {
		n := 1 + int(nRaw)%200
		checkAgainstReference(t, prng.New(seed), n, 1+int(rounds)%16, float64(density)/255)
	})
}
