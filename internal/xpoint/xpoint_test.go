package xpoint

import (
	"testing"
	"testing/quick"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/prng"
)

func req(n int, set ...int) bitvec.Vec {
	r := bitvec.New(n)
	for _, i := range set {
		r.Set(i)
	}
	return r
}

func TestColumnBasicGrant(t *testing.T) {
	c := NewColumn(4)
	if w := c.Arbitrate(req(4, 2)); w != 2 {
		t.Fatalf("winner %d, want 2", w)
	}
	if !c.Connected(2) || c.Connected(0) {
		t.Fatal("connectivity bits wrong")
	}
}

func TestColumnNoRequestors(t *testing.T) {
	c := NewColumn(4)
	if w := c.Arbitrate(req(4)); w != -1 {
		t.Fatalf("winner %d, want -1", w)
	}
	for i := 0; i < 4; i++ {
		if c.Connected(i) {
			t.Fatal("stray connectivity bit")
		}
	}
}

func TestColumnSelfUpdatingLRG(t *testing.T) {
	c := NewColumn(3)
	all := req(3, 0, 1, 2)
	var seq []int
	for i := 0; i < 9; i++ {
		seq = append(seq, c.Arbitrate(all))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence %v, want %v", seq, want)
		}
	}
}

// TestColumnMatchesBehaviouralLRG is the package's reason to exist: the
// circuit mechanism (pull-down priority lines, sense, self-update) must
// agree with the behavioural LRG arbiter on every request stream.
func TestColumnMatchesBehaviouralLRG(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		n := 2 + src.Intn(15)
		col, ref := NewColumn(n), arb.NewLRG(n)
		rv := bitvec.New(n)
		for step := 0; step < 400; step++ {
			for i := 0; i < n; i++ {
				rv.SetTo(i, src.Bernoulli(0.4))
			}
			a := col.Arbitrate(rv)
			b := ref.Grant(rv)
			if a != b {
				return false
			}
			if b >= 0 {
				ref.Update(b)
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnPriorityLineBudget(t *testing.T) {
	// The 2D Swizzle-Switch reuses the 128-bit output bus as priority
	// lines: a radix-64 column needs 64 of the 128 wires.
	if got := NewColumn(64).PriorityLinesUsed(); got > 128 {
		t.Fatalf("%d priority lines exceed the 128-bit output bus", got)
	}
}

func TestCLRGColumnClassBeatsLRG(t *testing.T) {
	c := NewCLRGColumn(3, 8, 3)
	inputOf := []int{0, 1, 2}
	// Line 0 (input 0) wins twice -> class 2.
	c.Arbitrate(req(3, 0), inputOf)
	c.Arbitrate(req(3, 0), inputOf)
	if got := c.Class(0); got != 2 {
		t.Fatalf("class %d, want 2", got)
	}
	// Now line 2 (input 2, class 0) must beat line 0 despite line 0
	// holding top LRG priority... which it no longer does, so check the
	// stronger case: line 0 at class 2 vs line 1 at class 0.
	if w := c.Arbitrate(req(3, 0, 1), inputOf); w != 1 {
		t.Fatalf("winner %d, want 1 (lower class)", w)
	}
}

// TestCLRGColumnMatchesBehaviouralCLRG drives the Fig 7 circuit and the
// behavioural CLRG arbiter with identical streams: winners and class
// states must agree forever, including across counter-halving events.
func TestCLRGColumnMatchesBehaviouralCLRG(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := prng.New(seed)
		lines := 2 + src.Intn(12)
		inputs := lines * (1 + src.Intn(4))
		classes := 2 + src.Intn(3)
		col := NewCLRGColumn(lines, inputs, classes)
		ref := arb.NewCLRG(lines, inputs, classes)
		rv := bitvec.New(lines)
		inputOf := make([]int, lines)
		for step := 0; step < 400; step++ {
			for i := range inputOf {
				rv.SetTo(i, src.Bernoulli(0.5))
				// Each line presents one of its binned inputs.
				inputOf[i] = (i + lines*src.Intn(inputs/lines)) % inputs
			}
			a := col.Arbitrate(rv, inputOf)
			b := ref.Grant(rv, inputOf)
			if a != b {
				return false
			}
			if b >= 0 {
				ref.Update(b, inputOf[b])
			}
			for in := 0; in < inputs; in++ {
				if col.Class(in) != ref.Class(in) {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLRGColumnFig7LineBudget(t *testing.T) {
	// Fig 7's configuration: 13 lines x 3 classes = 39 wires of the
	// 128-bit output bus (the figure labels wires 0-38).
	c := NewCLRGColumn(13, 64, 3)
	if got := c.PriorityLinesUsed(); got != 39 {
		t.Fatalf("priority lines %d, want 39", got)
	}
	if got := c.PriorityLinesUsed(); got > 128 {
		t.Fatalf("%d wires exceed the output bus", got)
	}
}

func TestCLRGColumnConnectivityExclusive(t *testing.T) {
	src := prng.New(12)
	c := NewCLRGColumn(13, 64, 3)
	r := bitvec.New(13)
	inputOf := make([]int, 13)
	for step := 0; step < 2000; step++ {
		for i := 0; i < 13; i++ {
			r.SetTo(i, src.Bernoulli(0.6))
			inputOf[i] = src.Intn(64)
		}
		w := c.Arbitrate(r, inputOf) // panics internally on double latch
		set := 0
		for i := 0; i < 13; i++ {
			if c.Connected(i) {
				set++
			}
		}
		if (w >= 0 && set != 1) || (w < 0 && set != 0) {
			t.Fatalf("connectivity bits %d with winner %d", set, w)
		}
	}
}

func TestCLRGColumnRejectsBadClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCLRGColumn(4, 8, 1)
}

func BenchmarkColumnArbitrate64(b *testing.B) {
	c := NewColumn(64)
	r := bitvec.New(64)
	for i := 0; i < 64; i += 2 {
		r.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Arbitrate(r)
	}
}

func BenchmarkColumnArbitrate128(b *testing.B) {
	c := NewColumn(128)
	r := bitvec.New(128)
	for i := 0; i < 128; i += 2 {
		r.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Arbitrate(r)
	}
}

func BenchmarkCLRGColumnArbitrate13(b *testing.B) {
	c := NewCLRGColumn(13, 64, 3)
	r := bitvec.New(13)
	inputOf := make([]int, 13)
	for i := 0; i < 13; i++ {
		if i%2 == 0 {
			r.Set(i)
		}
		inputOf[i] = i * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Arbitrate(r, inputOf)
	}
}
