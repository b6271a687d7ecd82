package bitvec

import (
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// refBits is the []bool reference model every Vec operation is checked
// against.
type refBits []bool

func (r refBits) toVec() Vec {
	v := New(len(r))
	r.fill(v)
	return v
}

// fill overwrites v with the set entries of r.
func (r refBits) fill(v Vec) {
	v.Zero()
	for i, b := range r {
		if b {
			v.Set(i)
		}
	}
}

func (r refBits) first() int {
	for i, b := range r {
		if b {
			return i
		}
	}
	return -1
}

func (r refBits) count() int {
	n := 0
	for _, b := range r {
		if b {
			n++
		}
	}
	return n
}

// randomRef returns a random bool slice of length n with the given set
// density.
func randomRef(src *prng.Source, n int, p float64) refBits {
	r := make(refBits, n)
	for i := range r {
		r[i] = src.Bernoulli(p)
	}
	return r
}

// TestVecMatchesBoolReference drives every operation against the bool
// model across sizes spanning the single-word fast path (N ≤ 64), the
// exact word boundary, and multi-word vectors.
func TestVecMatchesBoolReference(t *testing.T) {
	src := prng.New(42)
	for _, n := range []int{1, 13, 31, 63, 64, 65, 127, 128, 130, 200} {
		for trial := 0; trial < 50; trial++ {
			a := randomRef(src, n, 0.4)
			b := randomRef(src, n, 0.4)
			va, vb := a.toVec(), b.toVec()

			for i := 0; i < n; i++ {
				if va.Get(i) != a[i] {
					t.Fatalf("n=%d Get(%d)=%v want %v", n, i, va.Get(i), a[i])
				}
			}
			if va.Count() != a.count() {
				t.Fatalf("n=%d Count()=%d want %d", n, va.Count(), a.count())
			}
			if va.First() != a.first() {
				t.Fatalf("n=%d First()=%d want %d", n, va.First(), a.first())
			}
			if va.Any() != (a.count() > 0) || va.None() != (a.count() == 0) {
				t.Fatalf("n=%d Any/None disagree with count %d", n, a.count())
			}

			check := func(op string, got Vec, want func(x, y bool) bool) {
				t.Helper()
				for i := 0; i < n; i++ {
					if got.Get(i) != want(a[i], b[i]) {
						t.Fatalf("n=%d %s bit %d: got %v", n, op, i, got.Get(i))
					}
				}
			}
			or := a.toVec()
			or.Or(vb)
			check("or", or, func(x, y bool) bool { return x || y })
			and := a.toVec()
			and.And(vb)
			check("and", and, func(x, y bool) bool { return x && y })
			andNot := a.toVec()
			andNot.AndNot(vb)
			check("andnot", andNot, func(x, y bool) bool { return x && !y })

			cp := New(n)
			cp.Copy(va)
			if !cp.Equal(va) {
				t.Fatalf("n=%d Copy not Equal", n)
			}
			if cp.Equal(vb) != eqRef(a, b) {
				t.Fatalf("n=%d Equal disagrees with reference", n)
			}

			var seen []int
			va.ForEach(func(i int) { seen = append(seen, i) })
			want := setIndices(a)
			if len(seen) != len(want) {
				t.Fatalf("n=%d ForEach visited %v want %v", n, seen, want)
			}
			for i := range want {
				if seen[i] != want[i] {
					t.Fatalf("n=%d ForEach order %v want %v", n, seen, want)
				}
			}
		}
	}
}

func eqRef(a, b refBits) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func setIndices(r refBits) []int {
	var idx []int
	for i, b := range r {
		if b {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestSetClearTo checks single-bit mutation at word boundaries and that
// tail bits beyond the logical length stay zero under SetFirstN.
func TestSetClearTo(t *testing.T) {
	for _, n := range []int{1, 64, 65, 129} {
		v := New(n)
		for _, i := range []int{0, n / 2, n - 1} {
			v.Set(i)
			if !v.Get(i) {
				t.Fatalf("n=%d Set(%d) lost", n, i)
			}
			v.Clear(i)
			if v.Get(i) {
				t.Fatalf("n=%d Clear(%d) stuck", n, i)
			}
			v.SetTo(i, true)
			if !v.Get(i) {
				t.Fatalf("n=%d SetTo(%d,true) lost", n, i)
			}
			v.SetTo(i, false)
			if v.Get(i) {
				t.Fatalf("n=%d SetTo(%d,false) stuck", n, i)
			}
		}
	}
}

func TestSetFirstN(t *testing.T) {
	for _, n := range []int{0, 1, 13, 63, 64, 65, 128, 130} {
		v := make(Vec, WordsFor(n)+1) // one spare word to catch overruns
		for i := range v {
			v[i] = ^uint64(0)
		}
		v.SetFirstN(n)
		if got := v.Count(); got != n {
			t.Fatalf("SetFirstN(%d) set %d bits", n, got)
		}
		for i := 0; i < n; i++ {
			if !v.Get(i) {
				t.Fatalf("SetFirstN(%d) missed bit %d", n, i)
			}
		}
	}
}

func TestZeroAndWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d)=%d want %d", n, got, want)
		}
	}
	v := New(130)
	v.SetFirstN(130)
	v.Zero()
	if v.Any() {
		t.Fatal("Zero left bits set")
	}
}

// nextWrapRef is the obvious O(n) model of NextWrap.
func (r refBits) nextWrap(start int) int {
	for k := 0; k < len(r); k++ {
		i := (start + k) % len(r)
		if r[i] {
			return i
		}
	}
	return -1
}

// TestNextWrapMatchesReference checks the rotating-priority scan against
// the bool model at every start position, across the single-word fast
// path, word boundaries, and multi-word vectors, including the empty and
// the full vector.
func TestNextWrapMatchesReference(t *testing.T) {
	src := prng.New(7)
	for _, n := range []int{1, 13, 31, 63, 64, 65, 127, 128, 130, 200} {
		for _, p := range []float64{0, 0.05, 0.4, 1} {
			for trial := 0; trial < 20; trial++ {
				ref := randomRef(src, n, p)
				v := ref.toVec()
				for start := 0; start < n; start++ {
					if got, want := v.NextWrap(start), ref.nextWrap(start); got != want {
						t.Fatalf("n=%d p=%v NextWrap(%d)=%d want %d (bits %v)",
							n, p, start, got, want, setIndices(ref))
					}
				}
			}
		}
	}
}

// TestRotateRightMatchesReference checks the n-bit rotation against the
// bool model at every shift 0..n, for sizes on both sides of each word
// boundary, and that rotating right by r then by n-r restores the input.
func TestRotateRightMatchesReference(t *testing.T) {
	src := prng.New(17)
	for _, n := range []int{1, 2, 13, 63, 64, 65, 100, 127, 128, 129, 130, 200} {
		a := randomRef(src, n, 0.5)
		va := a.toVec()
		got, back := New(n), New(n)
		want := make(refBits, n)
		for r := 0; r <= n; r++ {
			for k := range want {
				want[k] = a[(k+r)%n]
			}
			got.RotateRight(va, r, n)
			if !eqRef(vecToRef(got, n), want) {
				t.Fatalf("n=%d r=%d: RotateRight = %v, want %v", n, r, setIndices(vecToRef(got, n)), setIndices(want))
			}
			if n&63 != 0 && got[len(got)-1]>>(uint(n)&63) != 0 {
				t.Fatalf("n=%d r=%d: bits beyond n set", n, r)
			}
			back.RotateRight(got, n-r, n)
			if !back.Equal(va) {
				t.Fatalf("n=%d r=%d: rotating back by n-r does not restore the input", n, r)
			}
		}
	}
}

// vecToRef reads the first n bits of v into the bool model.
func vecToRef(v Vec, n int) refBits {
	r := make(refBits, n)
	for i := range r {
		r[i] = v.Get(i)
	}
	return r
}

// TestTransposeMatchesReference checks the tiled transpose against the
// bit-by-bit definition for sizes that leave partial tiles on either
// axis, at several densities, and that dst is fully overwritten (stale
// bits from an earlier call never survive, including in all-zero tiles).
func TestTransposeMatchesReference(t *testing.T) {
	src := prng.New(23)
	for _, n := range []int{1, 2, 7, 63, 64, 65, 127, 128, 130, 200} {
		m := make([]Vec, n)
		tr := make([]Vec, n)
		back := make([]Vec, n)
		for i := range m {
			m[i], tr[i], back[i] = New(n), New(n), New(n)
			tr[i].SetFirstN(n) // stale garbage Transpose must overwrite
		}
		for _, p := range []float64{0, 0.02, 0.5, 1} {
			rows := make([]refBits, n)
			for i := range m {
				rows[i] = randomRef(src, n, p)
				rows[i].fill(m[i])
			}
			Transpose(tr, m, n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if tr[j].Get(i) != rows[i][j] {
						t.Fatalf("n=%d p=%v: transpose bit (%d,%d) = %v, want %v", n, p, j, i, tr[j].Get(i), rows[i][j])
					}
				}
			}
			Transpose(back, tr, n)
			for i := range m {
				if !back[i].Equal(m[i]) {
					t.Fatalf("n=%d p=%v: transposing twice changed row %d", n, p, i)
				}
			}
		}
	}
}

// TestTransposeAndRotateZeroAllocs pins both primitives allocation-free:
// the transpose's tile lives on the stack.
func TestTransposeAndRotateZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 130} {
		m := make([]Vec, n)
		tr := make([]Vec, n)
		for i := range m {
			m[i], tr[i] = New(n), New(n)
			m[i].Set(i)
		}
		if avg := testing.AllocsPerRun(10, func() {
			Transpose(tr, m, n)
			tr[0].RotateRight(m[1], 3, n)
		}); avg != 0 {
			t.Errorf("n=%d: %.1f allocs/op, want 0", n, avg)
		}
	}
}

// BenchmarkTranspose times one n×n transpose of a ~25% dense matrix.
func BenchmarkTranspose(b *testing.B) {
	src := prng.New(7)
	for _, n := range []int{64, 128} {
		m := make([]Vec, n)
		tr := make([]Vec, n)
		for i := range m {
			m[i], tr[i] = New(n), New(n)
			for j := 0; j < n; j++ {
				if src.Bernoulli(0.25) {
					m[i].Set(j)
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Transpose(tr, m, n)
			}
		})
	}
}
