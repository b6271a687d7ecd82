package arb

import (
	"slices"
	"testing"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/prng"
)

// FuzzListMatrixEquivalence fuzzes the two LRG implementations with
// arbitrary request streams; any divergence is a bug in one of them.
func FuzzListMatrixEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(4), []byte{0xAA, 0x0F, 0x33})
	f.Add(uint64(7), uint8(13), []byte{0x01, 0xFF, 0x80, 0x42})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, stream []byte) {
		n := 2 + int(nRaw%15)
		list, matrix := NewLRG(n), NewMatrix(n)
		req := bitvec.New(n)
		src := prng.New(seed)
		for _, b := range stream {
			for i := 0; i < n; i++ {
				req.SetTo(i, (b>>(uint(i)%8))&1 == 1 && src.Bernoulli(0.9))
			}
			a, bb := list.Grant(req), matrix.Grant(req)
			if a != bb {
				t.Fatalf("list %d vs matrix %d on %v", a, bb, req)
			}
			if a >= 0 {
				list.Update(a)
				matrix.Update(a)
			}
			if !matrix.WellFormed() {
				t.Fatal("matrix lost total order")
			}
		}
	})
}

// FuzzBitsetMatrixEquivalence pins the word-parallel Matrix kernel to
// the bool-slice formulation (boolMatrix in ref_test.go): identical
// grants on every request pattern, across arbitrary update sequences. Seeds cover the one-word fast path (N=64, N=13) and the
// multi-word path (N up to 130).
func FuzzBitsetMatrixEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(63), []byte{0xAA, 0x0F, 0x33})     // 64 lines: one full word
	f.Add(uint64(7), uint8(12), []byte{0x01, 0xFF, 0x80})     // 13 lines: sub-block shape
	f.Add(uint64(9), uint8(129), []byte{0xC3, 0x3C, 0x55, 0}) // 130 lines: three words
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, stream []byte) {
		n := 1 + int(nRaw)%130
		fast, ref := NewMatrix(n), newBoolMatrix(n)
		req := make([]bool, n)
		reqBits := bitvec.New(n)
		src := prng.New(seed)
		for _, b := range stream {
			for i := range req {
				req[i] = (b>>(uint(i)%8))&1 == 1 && src.Bernoulli(0.8)
			}
			fill(reqBits, req)
			a, c := fast.Grant(reqBits), ref.grant(req)
			if a != c {
				t.Fatalf("bitset %d vs bool %d on %v", a, c, req)
			}
			if a >= 0 {
				fast.Update(a)
				ref.update(a)
			}
			if !fast.WellFormed() {
				t.Fatal("matrix lost total order")
			}
		}
	})
}

// grantSizes are the port counts the reference differential fuzzes
// pin: sub-word (13), one bit short of a word (63), one bit into the
// second word (65), and a ragged third word (130). These cross every
// boundary the wrap-around scan in RoundRobin.Grant has to handle.
var grantSizes = []int{13, 63, 65, 130}

// FuzzRoundRobinGrantEquivalence differential-fuzzes RoundRobin.Grant
// against its cyclic []bool scan at non-multiple-of-64 sizes, forcing
// the scan pointer into every word — in particular into the tail word,
// and onto request patterns whose only set bits lie below the pointer
// (the wrap-around segment).
func FuzzRoundRobinGrantEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0xAA, 0x0F, 0x33, 0x80})
	f.Add(uint64(9), []byte{0x01, 0, 0xFF, 0x42, 0x7})
	f.Fuzz(func(t *testing.T, seed uint64, stream []byte) {
		src := prng.New(seed)
		for _, n := range grantSizes {
			r := NewRoundRobin(n)
			req := make([]bool, n)
			reqBits := bitvec.New(n)
			for si, b := range stream {
				// Park the pointer anywhere, including the tail word and
				// the very last slot; the fuzzed byte biases the density
				// so sparse wrap-below-pointer patterns appear often.
				r.next = src.Intn(n)
				if si%3 == 0 {
					r.next = n - 1 - src.Intn(1+n/8) // deep in the tail word
				}
				dens := float64(b) / 255
				for i := range req {
					req[i] = src.Bernoulli(dens)
				}
				if si%4 == 1 {
					// Only bits strictly below the pointer: the pure
					// wrap-around case.
					for i := r.next; i < n; i++ {
						req[i] = false
					}
				}
				fill(reqBits, req)
				want := refRoundRobinGrant(r, req)
				if got := r.Grant(reqBits); got != want {
					t.Fatalf("n=%d next=%d: Grant %d vs reference %d on %v", n, r.next, got, want, req)
				}
				if want >= 0 {
					r.Update(want)
				}
			}
		}
	})
}

// FuzzLRGFixedGrantEquivalence is the same differential for the LRG,
// Fixed and WLRG arbiters against their []bool references, across update
// sequences (WLRG with arbitrary weights, so its priority freezes). The
// timestamp LRG is driven next to the priority list it replaced
// (refLRG): grants must match, and so must the order Order() reports
// after every update. WLRG's grant must be the scan of its own reported
// line order.
func FuzzLRGFixedGrantEquivalence(f *testing.F) {
	f.Add(uint64(2), []byte{0xF0, 0x55, 0x03})
	f.Fuzz(func(t *testing.T, seed uint64, stream []byte) {
		src := prng.New(seed)
		for _, n := range grantSizes {
			lrg, ref, fixed, wlrg := NewLRG(n), newRefLRG(n), NewFixed(n), NewWLRG(n)
			req := make([]bool, n)
			reqBits := bitvec.New(n)
			for _, b := range stream {
				dens := float64(b) / 255
				for i := range req {
					req[i] = src.Bernoulli(dens)
				}
				fill(reqBits, req)
				want := ref.grant(req)
				if got := lrg.Grant(reqBits); got != want {
					t.Fatalf("n=%d LRG: Grant %d vs reference %d on %v", n, got, want, req)
				}
				if want >= 0 {
					lrg.Update(want)
					ref.update(want)
				}
				if got := lrg.Order(); !slices.Equal(got, ref.order) {
					t.Fatalf("n=%d LRG: Order %v vs reference %v", n, got, ref.order)
				}
				if got, fw := fixed.Grant(reqBits), refFixedGrant(req); got != fw {
					t.Fatalf("n=%d Fixed: Grant %d vs reference %d on %v", n, got, fw, req)
				}
				ww := refOrderGrant(wlrg.LineOrder(), req)
				if got := wlrg.Grant(reqBits); got != ww {
					t.Fatalf("n=%d WLRG: Grant %d vs reference %d on %v", n, got, ww, req)
				}
				if ww >= 0 {
					wlrg.Update(ww, 1+src.Intn(4))
				}
			}
		}
	})
}

// FuzzCLRGNeverGrantsIdle fuzzes CLRG with arbitrary line/input streams:
// the winner is the one its []bool reference picks, always a requesting
// line, counters stay bounded, and no-requestor rounds return -1.
func FuzzCLRGNeverGrantsIdle(f *testing.F) {
	f.Add(uint64(3), uint8(5), uint8(20), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seed uint64, linesRaw, inputsRaw uint8, stream []byte) {
		lines := 2 + int(linesRaw%12)
		inputs := lines + int(inputsRaw%50)
		c := NewCLRG(lines, inputs, 3)
		req := make([]bool, lines)
		reqBits := bitvec.New(lines)
		inputOf := make([]int, lines)
		src := prng.New(seed)
		for _, b := range stream {
			any := false
			for i := range req {
				req[i] = (int(b)+i)%3 == 0 && src.Bernoulli(0.8)
				any = any || req[i]
				inputOf[i] = src.Intn(inputs)
			}
			fill(reqBits, req)
			want := refCLRGGrant(c, req, inputOf)
			w := c.Grant(reqBits, inputOf)
			if w != want {
				t.Fatalf("Grant %d vs reference %d on %v (inputs %v)", w, want, req, inputOf)
			}
			if w == -1 {
				if any {
					t.Fatalf("no grant despite requests %v", req)
				}
				continue
			}
			if !req[w] {
				t.Fatalf("granted idle line %d", w)
			}
			c.Update(w, inputOf[w])
			for in := 0; in < inputs; in++ {
				if cl := c.Class(in); cl < 0 || cl > 2 {
					t.Fatalf("class %d out of range", cl)
				}
			}
		}
	})
}

// FuzzQoSMatchesReference drives QoS and its []bool reference (refQoS)
// with arbitrary weights and request streams, and takes the winner only
// on some rounds: the rest, and every empty round, end without Update,
// so the lazy winnerless commit runs too. Winners and credit must agree
// after every round.
func FuzzQoSMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{0xFF, 0x0F, 0, 0x33, 0xAA})
	f.Add(uint64(5), uint8(64), []byte{0x80, 0xFF, 0xFF, 0x01, 0, 0x7E})
	f.Add(uint64(8), uint8(129), []byte{0x55, 0xC3, 0, 0xFF})
	// A credit tie after LRG has reordered requestors away from index
	// order: ties must follow LRG priority, not the lowest index.
	f.Add(uint64(59), uint8(3), []byte("0100000a0"))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, stream []byte) {
		n := 1 + int(nRaw)%130
		src := prng.New(seed)
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 1 + src.Intn(4) // small weights make credit ties common
		}
		q, ref := NewQoS(weights), newRefQoS(weights)
		req := make([]bool, n)
		reqBits := bitvec.New(n)
		for _, b := range stream {
			dens := float64(b) / 255
			for i := range req {
				req[i] = src.Bernoulli(dens)
			}
			fill(reqBits, req)
			got, want := q.Grant(reqBits), ref.grant(req)
			if got != want {
				t.Fatalf("n=%d: Grant %d vs reference %d on %v (credit %v)", n, got, want, req, ref.credit)
			}
			if got >= 0 && b&1 == 1 {
				q.Update(got)
				ref.update(want)
			}
			for i := range q.credit {
				if q.credit[i] != ref.credit[i] {
					t.Fatalf("n=%d: credit[%d] = %d, reference %d", n, i, q.credit[i], ref.credit[i])
				}
			}
		}
	})
}
