package sched

import (
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// FuzzSchedulersAgainstMWM is the satellite differential fuzz: every
// fast scheduler (iSLIP at 1, 2 and n iterations, wavefront) runs on a
// random request matrix with random queue lengths and is checked
// against the MWM reference:
//
//   - every emitted matching is valid (edges requested, no input or
//     output matched twice);
//   - the always-maximal schedulers (wavefront, iSLIP at n iterations)
//     emit maximal matchings;
//   - nobody exceeds the maximum cardinality (MWM with unit weights),
//     and a maximal matching has at least half of it;
//   - both MWM oracles carry an LP-duality certificate of optimality
//     (checkMWMCertificate).
//
// Port counts cross the 64-bit word boundary to exercise multi-word
// bitset paths.
func FuzzSchedulersAgainstMWM(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(64), uint8(3))
	f.Add(uint64(2), uint8(65), uint8(128), uint8(1))
	f.Add(uint64(3), uint8(13), uint8(200), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density, rounds uint8) {
		n := 1 + int(nRaw)%70
		p := float64(density) / 255
		src := prng.New(seed)
		req := newMatrix(n)
		qlen := make([]int32, n*n)
		match := make([]int, n)
		maxCard := make([]int, n)

		cardOracle := NewMWM(n) // unit weights -> maximum cardinality
		weightOracle := NewMWM(n)
		fast := map[string]Scheduler{
			"islip-1":   NewISLIP(n, 1),
			"islip-2":   NewISLIP(n, 2),
			"islip-n":   NewISLIP(n, n),
			"wavefront": NewWavefront(n),
		}
		// Several rounds per input reuse the same schedulers so pointer
		// state from earlier rounds is exercised too.
		for r := 0; r <= int(rounds)%8; r++ {
			randomReq(src, req, qlen, n, p)
			card := cardOracle.Schedule(req, nil, maxCard)
			checkValid(t, req, maxCard, n)
			checkMaximal(t, req, maxCard, n)
			checkMWMCertificate(t, cardOracle, maxCard, nil)

			wBest := weightOracle.Schedule(req, qlen, match)
			checkValid(t, req, match, n)
			checkMaximal(t, req, match, n)
			checkMWMCertificate(t, weightOracle, match, qlen)
			if wBest > card {
				t.Fatalf("weighted MWM matched %d pairs > max cardinality %d", wBest, card)
			}
			best := matchWeight(match, qlen, n)

			for name, s := range fast {
				got := s.Schedule(req, qlen, match)
				checkValid(t, req, match, n)
				if got > card {
					t.Fatalf("%s matched %d pairs > max cardinality %d", name, got, card)
				}
				if w := matchWeight(match, qlen, n); w > best {
					t.Fatalf("%s weight %d beats MWM optimum %d", name, w, best)
				}
				if name == "wavefront" || name == "islip-n" {
					checkMaximal(t, req, match, n)
					if 2*got < card {
						t.Fatalf("%s matched %d pairs, below half of max cardinality %d", name, got, card)
					}
				}
			}
		}
	})
}

// FuzzISLIPIterationMonotonicity pins that on a fixed request matrix,
// adding iterations never shrinks the matching (each iteration only
// augments the current matching).
func FuzzISLIPIterationMonotonicity(f *testing.F) {
	f.Add(uint64(4), uint8(16), uint8(80))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density uint8) {
		n := 1 + int(nRaw)%70
		src := prng.New(seed)
		req := newMatrix(n)
		randomReq(src, req, nil, n, float64(density)/255)
		match := make([]int, n)
		prev := -1
		for _, iters := range []int{1, 2, 4, n} {
			got := NewISLIP(n, iters).Schedule(req, nil, match)
			checkValid(t, req, match, n)
			if got < prev {
				t.Fatalf("iters=%d matched %d < %d with fewer iterations", iters, got, prev)
			}
			prev = got
		}
	})
}
