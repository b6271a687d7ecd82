package arb

import (
	"testing"
	"testing/quick"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/prng"
)

// req returns an n-requestor request bitset with the given bits set.
func req(n int, set ...int) bitvec.Vec {
	r := bitvec.New(n)
	for _, i := range set {
		r.Set(i)
	}
	return r
}

func TestLRGGrantHighestPriority(t *testing.T) {
	l := NewLRG(4)
	if w := l.Grant(req(4, 1, 3)); w != 1 {
		t.Fatalf("winner %d, want 1", w)
	}
	// Grant must not mutate state.
	if w := l.Grant(req(4, 1, 3)); w != 1 {
		t.Fatalf("second Grant gave %d; Grant mutated state", w)
	}
}

func TestLRGNoRequestors(t *testing.T) {
	l := NewLRG(4)
	if w := l.Grant(req(4)); w != -1 {
		t.Fatalf("winner %d, want -1", w)
	}
}

func TestLRGUpdateRelegatesWinner(t *testing.T) {
	l := NewLRG(3)
	l.Update(0)
	if got := l.Order(); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("order %v, want [1 2 0]", got)
	}
	if w := l.Grant(req(3, 0, 1)); w != 1 {
		t.Fatalf("winner %d, want 1 after relegation", w)
	}
}

func TestLRGServicesAllUnderContention(t *testing.T) {
	// With everyone always requesting, LRG must be a perfect rotation.
	l := NewLRG(5)
	all := req(5, 0, 1, 2, 3, 4)
	counts := make([]int, 5)
	for i := 0; i < 100; i++ {
		w := l.Grant(all)
		counts[w]++
		l.Update(w)
	}
	for i, c := range counts {
		if c != 20 {
			t.Errorf("requestor %d won %d times, want 20", i, c)
		}
	}
}

func TestLRGFromOrder(t *testing.T) {
	l := NewLRGFromOrder([]int{3, 1, 0, 2})
	if w := l.Grant(req(4, 0, 1, 2, 3)); w != 3 {
		t.Fatalf("winner %d, want 3", w)
	}
	if w := l.Grant(req(4, 0, 2)); w != 0 {
		t.Fatalf("winner %d, want 0", w)
	}
}

func TestLRGFromOrderRejectsNonPermutation(t *testing.T) {
	for _, bad := range [][]int{{0, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v accepted", bad)
				}
			}()
			NewLRGFromOrder(bad)
		}()
	}
}

// TestMatrixMatchesListLRG drives the hardware-style matrix arbiter and
// the list-based model with identical random request streams and demands
// identical grants forever.
func TestMatrixMatchesListLRG(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		n := 2 + src.Intn(15)
		list, matrix := NewLRG(n), NewMatrix(n)
		r := bitvec.New(n)
		for step := 0; step < 300; step++ {
			for i := 0; i < n; i++ {
				r.SetTo(i, src.Bernoulli(0.4))
			}
			a, b := list.Grant(r), matrix.Grant(r)
			if a != b {
				return false
			}
			if a >= 0 {
				list.Update(a)
				matrix.Update(a)
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixStaysWellFormed(t *testing.T) {
	src := prng.New(99)
	m := NewMatrix(8)
	if !m.WellFormed() {
		t.Fatal("initial matrix not a total order")
	}
	for i := 0; i < 200; i++ {
		m.Update(src.Intn(8))
		if !m.WellFormed() {
			t.Fatalf("matrix lost total-order property after update %d", i)
		}
	}
}

func TestMatrixFromOrder(t *testing.T) {
	m := NewMatrixFromOrder([]int{2, 0, 1})
	if w := m.Grant(req(3, 0, 1, 2)); w != 2 {
		t.Fatalf("winner %d, want 2", w)
	}
	if w := m.Grant(req(3, 0, 1)); w != 0 {
		t.Fatalf("winner %d, want 0", w)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin(4)
	all := req(4, 0, 1, 2, 3)
	var got []int
	for i := 0; i < 8; i++ {
		w := r.Grant(all)
		got = append(got, w)
		r.Update(w)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	r := NewRoundRobin(4)
	r.Update(0) // next = 1
	if w := r.Grant(req(4, 0, 3)); w != 3 {
		t.Fatalf("winner %d, want 3", w)
	}
	if w := r.Grant(req(4)); w != -1 {
		t.Fatalf("winner %d, want -1", w)
	}
}

func TestFixedNeverRotates(t *testing.T) {
	f := NewFixed(3)
	for i := 0; i < 10; i++ {
		if w := f.Grant(req(3, 1, 2)); w != 1 {
			t.Fatalf("winner %d, want 1", w)
		}
		f.Update(1)
	}
}

func TestArbiterInterfaceCompliance(t *testing.T) {
	for _, a := range []Arbiter{NewLRG(4), NewMatrix(4), NewRoundRobin(4), NewFixed(4)} {
		if a.N() != 4 {
			t.Errorf("%T: N = %d", a, a.N())
		}
		if w := a.Grant(req(4, 2)); w != 2 {
			t.Errorf("%T: sole requestor lost, got %d", a, w)
		}
	}
}

// TestSoleRequestorAlwaysWins is the most basic liveness property: any
// arbiter must grant a lone requestor regardless of internal state.
func TestSoleRequestorAlwaysWins(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		n := 2 + src.Intn(12)
		arbs := []Arbiter{NewLRG(n), NewMatrix(n), NewRoundRobin(n)}
		for _, a := range arbs {
			for i := 0; i < 50; i++ {
				a.Update(src.Intn(n)) // scramble state
			}
			who := src.Intn(n)
			if a.Grant(req(n, who)) != who {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
