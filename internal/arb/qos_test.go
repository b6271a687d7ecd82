package arb

import (
	"math"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

func TestQoSProportionalShares(t *testing.T) {
	weights := []int{1, 2, 4, 1}
	q := NewQoS(weights)
	all := req(4, 0, 1, 2, 3)
	wins := make([]int, 4)
	const rounds = 8000
	for i := 0; i < rounds; i++ {
		w := q.Grant(all)
		wins[w]++
		q.Update(w)
	}
	total := 8.0
	for i, w := range weights {
		want := float64(w) / total
		got := float64(wins[i]) / rounds
		if math.Abs(got-want) > 0.01 {
			t.Errorf("requestor %d share %.3f, want %.3f", i, got, want)
		}
	}
}

func TestQoSIdleRequestorAccruesNothing(t *testing.T) {
	// A requestor that never asks must not bank credit and then starve
	// others when it returns.
	q := NewQoS([]int{1, 1})
	only0 := req(2, 0)
	for i := 0; i < 100; i++ {
		q.Update(q.Grant(only0))
	}
	both := req(2, 0, 1)
	wins := make([]int, 2)
	for i := 0; i < 100; i++ {
		w := q.Grant(both)
		wins[w]++
		q.Update(w)
	}
	if wins[1] > 60 {
		t.Errorf("returning requestor won %d/100; idle time must not bank credit", wins[1])
	}
}

func TestQoSSoleRequestorWins(t *testing.T) {
	q := NewQoS([]int{3, 5})
	if w := q.Grant(req(2, 1)); w != 1 {
		t.Fatalf("winner %d", w)
	}
	if w := q.Grant(req(2)); w != -1 {
		t.Fatalf("empty grant %d", w)
	}
}

func TestQoSPanicsOnBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQoS([]int{1, 0})
}

func TestQoSEqualWeightsDegradeToFair(t *testing.T) {
	src := prng.New(4)
	q := NewQoS([]int{2, 2, 2})
	wins := make([]int, 3)
	all := req(3, 0, 1, 2)
	for i := 0; i < 3000; i++ {
		w := q.Grant(all)
		wins[w]++
		q.Update(w)
		_ = src
	}
	for i, w := range wins {
		if w != 1000 {
			t.Errorf("requestor %d won %d, want exactly 1000 under equal weights", i, w)
		}
	}
}

// TestQoSAdapterInterface drives QoS through the Arbiter interface.
func TestQoSAdapterInterface(t *testing.T) {
	var a Arbiter = NewQoS([]int{1, 3})
	if a.N() != 2 {
		t.Fatal("N wrong")
	}
	wins := make([]int, 2)
	both := req(2, 0, 1)
	for i := 0; i < 400; i++ {
		w := a.Grant(both)
		wins[w]++
		a.Update(w)
	}
	if math.Abs(float64(wins[1])/400-0.75) > 0.02 {
		t.Errorf("weight-3 share %.3f, want 0.75", float64(wins[1])/400)
	}
}

func TestQoSAdapterLazyCommitOnNoWinner(t *testing.T) {
	a := NewQoS([]int{1, 1})
	// Grant with no requestors returns -1 and no Update follows; the
	// next Grant must still work.
	if w := a.Grant(req(2)); w != -1 {
		t.Fatalf("got %d", w)
	}
	if w := a.Grant(req(2, 1)); w != 1 {
		t.Fatalf("got %d", w)
	}
	a.Update(1)

	// A contested round whose winner is not taken still credits both
	// requestors when the next Grant commits it: with weights 1 and 2,
	// requestor 1 then leads on credit and wins, where without the
	// commit the tie would go to requestor 0 on LRG priority.
	q := NewQoS([]int{1, 2})
	if w := q.Grant(req(2, 0, 1)); w != 0 {
		t.Fatalf("tied round granted %d, want 0", w)
	}
	if w := q.Grant(req(2, 0, 1)); w != 1 {
		t.Fatalf("after a winnerless round granted %d, want 1", w)
	}
}
