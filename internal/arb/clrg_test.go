package arb

import (
	"testing"
	"testing/quick"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
)

func TestCLRGLowestClassWins(t *testing.T) {
	c := NewCLRG(3, 8, 3)
	inputOf := []int{0, 1, 2}
	// Input 0 wins twice -> class 2; input 1 wins once -> class 1.
	c.Update(0, 0)
	c.Update(0, 0)
	c.Update(1, 1)
	if got := c.Class(0); got != 2 {
		t.Fatalf("class(0) = %d, want 2", got)
	}
	if got := c.Class(1); got != 1 {
		t.Fatalf("class(1) = %d, want 1", got)
	}
	// All three request: input 2 (class 0) must win despite having the
	// lowest LRG priority among lines.
	if w := c.Grant(req(3, 0, 1, 2), inputOf); w != 2 {
		t.Fatalf("winner line %d, want 2", w)
	}
}

func TestCLRGTieBreaksWithLRG(t *testing.T) {
	c := NewCLRGFromOrder([]int{1, 0}, 4, 3)
	inputOf := []int{2, 3} // both class 0
	if w := c.Grant(req(2, 0, 1), inputOf); w != 1 {
		t.Fatalf("winner %d, want line 1 (higher LRG)", w)
	}
}

func TestCLRGLRGUpdatedEvenWhenClassDecides(t *testing.T) {
	// Paper Fig 5 cycle 2: "Even though LRG is not used for this
	// arbitration cycle, it is still updated."
	c := NewCLRGFromOrder([]int{0, 1}, 4, 3)
	c.Update(0, 0) // line 0 wins; LRG order becomes 1 > 0
	if got := c.LineOrder(); got[0] != 1 {
		t.Fatalf("line order %v, want line 1 first", got)
	}
}

func TestCLRGSaturationHalvesAllCounters(t *testing.T) {
	c := NewCLRG(2, 4, 3) // maxClass 2
	c.Update(0, 1)        // input 1 -> 1
	c.Update(0, 0)        // input 0 -> 1
	c.Update(0, 0)        // input 0 -> 2
	c.Update(0, 0)        // saturated: halve (0:2->1, 1:1->0) then increment 0 -> 2
	if got := c.Class(0); got != 2 {
		t.Fatalf("class(0) = %d, want 2", got)
	}
	if got := c.Class(1); got != 0 {
		t.Fatalf("class(1) = %d, want 0 after halving", got)
	}
}

func TestCLRGHalvingPreservesClassOrder(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		c := NewCLRG(4, 6, 3)
		for step := 0; step < 500; step++ {
			before := make([]int, 6)
			for i := range before {
				before[i] = c.Class(i)
			}
			in := src.Intn(6)
			c.Update(src.Intn(4), in)
			// Relative order among non-winning inputs must be preserved
			// (weakly): if a < b before, then a <= b after.
			for a := 0; a < 6; a++ {
				for b := 0; b < 6; b++ {
					if a == in || b == in {
						continue
					}
					if before[a] < before[b] && c.Class(a) > c.Class(b) {
						return false
					}
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCLRGSaturateThenHalveProperty is the §III-B4 update-order property
// test across class counts (including the tight classes=2 case): on
// every Update the counters follow halve-on-saturation-then-increment
// exactly, Class() never exceeds classes-1, and the divide-by-two
// preserves the (weak) relative class order of the non-winning inputs.
func TestCLRGSaturateThenHalveProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, classesRaw, inputsRaw uint8) bool {
		src := prng.New(seed)
		classes := 2 + int(classesRaw)%7
		inputs := 2 + int(inputsRaw)%20
		maxClass := classes - 1
		c := NewCLRG(3, inputs, classes)
		before := make([]int, inputs)
		halvings := 0
		for step := 0; step < 2000 || halvings == 0; step++ {
			if step > 20000 {
				return false // saturation must occur; the counters only grow
			}
			for i := range before {
				before[i] = c.Class(i)
			}
			w := src.Intn(inputs)
			c.Update(src.Intn(3), w)
			saturated := before[w] >= maxClass
			if saturated {
				halvings++
			}
			for i := 0; i < inputs; i++ {
				want := before[i]
				if saturated {
					want /= 2
				}
				if i == w {
					want++
				}
				if got := c.Class(i); got != want {
					return false // update order broke the §III-B4 arithmetic
				}
				if got := c.Class(i); got < 0 || got > maxClass {
					return false // class escaped [0, classes-1]
				}
			}
			// Weak order preservation across the halving, winner aside.
			if saturated {
				for a := 0; a < inputs; a++ {
					for b := 0; b < inputs; b++ {
						if a == w || b == w {
							continue
						}
						if before[a] <= before[b] && c.Class(a) > c.Class(b) {
							return false
						}
					}
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLRGCountersBounded(t *testing.T) {
	src := prng.New(5)
	c := NewCLRG(3, 8, 3)
	for i := 0; i < 10000; i++ {
		c.Update(src.Intn(3), src.Intn(8))
		for in := 0; in < 8; in++ {
			if cl := c.Class(in); cl < 0 || cl > 2 {
				t.Fatalf("class(%d) = %d out of [0,2]", in, cl)
			}
		}
	}
}

func TestCLRGNoRequestors(t *testing.T) {
	c := NewCLRG(3, 4, 3)
	if w := c.Grant(req(3), []int{0, 1, 2}); w != -1 {
		t.Fatalf("winner %d, want -1", w)
	}
}

// TestCLRGEmptyRoundLeavesStateUntouched pins the empty-request fast
// path: idle rounds must return -1 before touching the masked scratch
// or the audit.
func TestCLRGEmptyRoundLeavesStateUntouched(t *testing.T) {
	c := NewCLRG(3, 4, 3)
	audit := obs.NewFairnessAudit(4, 3)
	c.SetAudit(audit)
	inputOf := []int{0, 1, 2}
	// Dirty the masked scratch with a real round first.
	if w := c.Grant(req(3, 1, 2), inputOf); w != 1 {
		t.Fatalf("winner %d, want 1", w)
	}
	saved := append(bitvec.Vec(nil), c.masked...)
	for round := 0; round < 2; round++ {
		if w := c.Grant(req(3), inputOf); w != -1 {
			t.Fatalf("idle round %d granted %d", round, w)
		}
	}
	if !c.masked.Equal(saved) {
		t.Error("idle round touched the masked scratch")
	}
	if rep := audit.Report(); rep.TotalRequests != 2 {
		t.Errorf("audit saw %d observations, want 2 (idle rounds must not audit)", rep.TotalRequests)
	}
}

// TestWLRGNoRequestors pins WLRG's empty-request path; a later contested
// round still sees the untouched initial priority order.
func TestWLRGNoRequestors(t *testing.T) {
	w := NewWLRG(4)
	if g := w.Grant(req(4)); g != -1 {
		t.Fatalf("idle round granted %d", g)
	}
	if g := w.Grant(req(4, 2, 3)); g != 2 {
		t.Fatalf("winner %d, want 2", g)
	}
}

func TestCLRGPanicsOnBadClassCount(t *testing.T) {
	for _, classes := range []int{0, 1, 300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("classes=%d accepted", classes)
				}
			}()
			NewCLRG(2, 2, classes)
		}()
	}
}

// TestCLRGPaperAdversarialSequence replays the arbitration-cycle walk of
// paper Fig 5 at sub-block granularity: line 0 = C1,4 carrying the L1 LRG
// {15,11,7,3}, line 1 = C2,4 carrying input 20; the interlayer LRG starts
// with C2,4 above C1,4 (as drawn). The winner sequence must be
// {20, 15, 11, 7, 3, 20, ...} — the flat-2D-LRG pattern.
func TestCLRGPaperAdversarialSequence(t *testing.T) {
	sub := NewCLRGFromOrder([]int{1, 0}, 64, 3) // line 1 (C2,4) highest
	localL1 := NewLRGFromOrder([]int{15, 11, 7, 3, 0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14})
	l1Req := req(16, 3, 7, 11, 15)

	var winners []int
	for cycle := 0; cycle < 10; cycle++ {
		l1Winner := localL1.Grant(l1Req) // contender on C1,4
		inputOf := []int{l1Winner, 20}
		line := sub.Grant(req(2, 0, 1), inputOf)
		winner := inputOf[line]
		winners = append(winners, winner)
		sub.Update(line, winner)
		if line == 0 {
			localL1.Update(l1Winner) // back-propagated local update
		}
	}
	want := []int{20, 15, 11, 7, 3, 20, 15, 11, 7, 3}
	for i := range want {
		if winners[i] != want[i] {
			t.Fatalf("winner sequence %v, want %v", winners, want)
		}
	}
}

func TestWLRGProportionalBandwidth(t *testing.T) {
	// Line 0 represents 4 requestors, line 1 represents 1. Over many
	// cycles line 0 must win ~4x as often.
	w := NewWLRG(2)
	wins := [2]int{}
	for i := 0; i < 1000; i++ {
		line := w.Grant(req(2, 0, 1))
		wins[line]++
		weight := 1
		if line == 0 {
			weight = 4
		}
		w.Update(line, weight)
	}
	if wins[0] != 800 || wins[1] != 200 {
		t.Fatalf("wins %v, want [800 200]", wins)
	}
}

func TestWLRGWeightOneBehavesLikeLRG(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		n := 2 + src.Intn(6)
		w, l := NewWLRG(n), NewLRG(n)
		r := bitvec.New(n)
		for step := 0; step < 200; step++ {
			for i := 0; i < n; i++ {
				r.SetTo(i, src.Bernoulli(0.5))
			}
			a, b := w.Grant(r), l.Grant(r)
			if a != b {
				return false
			}
			if a >= 0 {
				w.Update(a, 1)
				l.Update(a)
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWLRGClampsWeight(t *testing.T) {
	w := NewWLRG(2)
	w.Update(0, 0) // weight < 1 clamps to 1: priority must drop immediately
	if got := w.LineOrder(); got[0] != 1 {
		t.Fatalf("order %v, want line 1 first", got)
	}
}

func BenchmarkLRGGrant64(b *testing.B) {
	l := NewLRG(64)
	r := bitvec.New(64)
	for i := 0; i < 64; i += 3 {
		r.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := l.Grant(r)
		l.Update(w)
	}
}

func BenchmarkCLRGGrant13(b *testing.B) {
	c := NewCLRG(13, 64, 3)
	r := bitvec.New(13)
	inputOf := make([]int, 13)
	for i := range inputOf {
		r.SetTo(i, i%2 == 0)
		inputOf[i] = i * 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := c.Grant(r, inputOf)
		c.Update(w, inputOf[w])
	}
}
