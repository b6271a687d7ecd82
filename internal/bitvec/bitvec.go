// Package bitvec provides the word-parallel bitset kernel behind every
// arbitration hot path in this repository. A Vec packs one bit per
// requestor into []uint64 words, so the request-vector operations the
// switch models run every simulated cycle — clear, set, mask, first-set
// — cost one machine-word operation per 64 requestors instead of one
// bool operation per requestor. This is the software analogue of the
// Swizzle-Switch arbiter's bit-parallelism (paper §II-A): the hardware
// evaluates all priority lines at once, and the model evaluates a word
// of them at once.
//
// Every mutating operation preserves the invariant that bits at or
// beyond the vector's logical length are zero, provided callers only
// Set bits below it (SetFirstN masks the tail explicitly). Binary
// operations require equal word counts and panic otherwise via the
// runtime's bounds checks.
//
// Hot loops iterate set bits without closures:
//
//	for w, word := range v {
//		for word != 0 {
//			i := w<<6 | bits.TrailingZeros64(word)
//			word &= word - 1
//			... use i ...
//		}
//	}
//
// Single-word vectors (N ≤ 64, every radix-64 column and every
// sub-block in the paper's configurations) take explicit len==1 fast
// paths that collapse each operation to one untaken-branch word op.
package bitvec

import "math/bits"

// Vec is a little-endian bitset: bit i lives in word i/64 at position
// i%64.
type Vec []uint64

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// New returns a zeroed vector with capacity for n bits.
func New(n int) Vec { return make(Vec, WordsFor(n)) }

// Set sets bit i.
func (v Vec) Set(i int) { v[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (v Vec) Clear(i int) { v[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool { return v[i>>6]>>(uint(i)&63)&1 != 0 }

// SetTo sets bit i to b.
func (v Vec) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Zero clears every bit.
func (v Vec) Zero() {
	if len(v) == 1 {
		v[0] = 0
		return
	}
	for i := range v {
		v[i] = 0
	}
}

// SetFirstN sets bits [0, n) and clears the rest. n must fit in v.
func (v Vec) SetFirstN(n int) {
	if len(v) == 1 {
		v[0] = tailMask(n)
		return
	}
	full := n >> 6
	for i := 0; i < full; i++ {
		v[i] = ^uint64(0)
	}
	if full < len(v) {
		v[full] = tailMask(n & 63)
		for i := full + 1; i < len(v); i++ {
			v[i] = 0
		}
	}
}

// tailMask returns a mask of the low n bits, n in [0, 64].
func tailMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Any reports whether any bit is set.
func (v Vec) Any() bool {
	if len(v) == 1 {
		return v[0] != 0
	}
	for _, w := range v {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v Vec) None() bool { return !v.Any() }

// Count returns the number of set bits.
func (v Vec) Count() int {
	if len(v) == 1 {
		return bits.OnesCount64(v[0])
	}
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the index of the lowest set bit, or -1.
func (v Vec) First() int {
	if len(v) == 1 {
		if v[0] == 0 {
			return -1
		}
		return bits.TrailingZeros64(v[0])
	}
	for i, w := range v {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextWrap returns the index of the first set bit at or after start,
// wrapping past the end of the vector back to bit 0, or -1 if no bit is
// set. start must lie in [0, 64*len(v)). It is the rotating-priority
// selection primitive of the round-robin schedulers (internal/sched): a
// pointer at start picks NextWrap(start), and advancing the pointer
// rotates which contender is favoured.
func (v Vec) NextWrap(start int) int {
	sw, off := start>>6, start&63
	if len(v) == 1 {
		w := v[0]
		if hi := w &^ tailMask(off); hi != 0 {
			return bits.TrailingZeros64(hi)
		}
		if w == 0 {
			return -1
		}
		return bits.TrailingZeros64(w)
	}
	if hi := v[sw] &^ tailMask(off); hi != 0 {
		return sw<<6 | bits.TrailingZeros64(hi)
	}
	for i := sw + 1; i < len(v); i++ {
		if v[i] != 0 {
			return i<<6 | bits.TrailingZeros64(v[i])
		}
	}
	for i := 0; i < sw; i++ {
		if v[i] != 0 {
			return i<<6 | bits.TrailingZeros64(v[i])
		}
	}
	if lo := v[sw] & tailMask(off); lo != 0 {
		return sw<<6 | bits.TrailingZeros64(lo)
	}
	return -1
}

// Or sets v to v | b. b must have the same word count.
func (v Vec) Or(b Vec) {
	if len(v) == 1 {
		v[0] |= b[0]
		return
	}
	for i, w := range b {
		v[i] |= w
	}
}

// And sets v to v & b. b must have the same word count.
func (v Vec) And(b Vec) {
	if len(v) == 1 {
		v[0] &= b[0]
		return
	}
	for i, w := range b {
		v[i] &= w
	}
}

// AndNot sets v to v &^ b. b must have the same word count.
func (v Vec) AndNot(b Vec) {
	if len(v) == 1 {
		v[0] &^= b[0]
		return
	}
	for i, w := range b {
		v[i] &^= w
	}
}

// Copy overwrites v with b. b must have the same word count.
func (v Vec) Copy(b Vec) {
	if len(v) == 1 {
		v[0] = b[0]
		return
	}
	copy(v, b)
}

// Equal reports whether v and b hold identical bits. b must have the
// same word count.
func (v Vec) Equal(b Vec) bool {
	if len(v) == 1 {
		return v[0] == b[0]
	}
	for i, w := range v {
		if w != b[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. Hot paths
// should inline the word loop instead (see the package comment); this
// helper is for tests and cold call sites.
func (v Vec) ForEach(fn func(i int)) {
	for w, word := range v {
		for word != 0 {
			fn(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// RotateRight sets v to the low n bits of src rotated right by r
// places, 0 ≤ r ≤ n: bit k of v becomes bit (k+r) mod n of src for
// every k < n. v must be sized for n bits (WordsFor(n) words); src may
// be longer, but its bits at and beyond n must be zero. v and src must
// not overlap. Rotating left by r is rotating right by n-r.
func (v Vec) RotateRight(src Vec, r, n int) {
	if len(v) == 1 {
		x := src[0]
		v[0] = (x>>uint(r) | x<<uint(n-r)) & tailMask(n)
		return
	}
	// Bit k of the result is bit k+r of src when k+r < n and bit k+r-n
	// otherwise; src is zero at and beyond bit n and (as window reads
	// it) below bit 0, so the two 64-bit windows never overlap.
	for w := range v {
		v[w] = src.window(w<<6+r) | src.window(w<<6+r-n)
	}
	last := len(v) - 1
	v[last] &= tailMask(n - last<<6)
}

// window returns the 64 bits of v starting at bit offset s, reading
// bits outside [0, 64*len(v)) as zero. s may be negative.
func (v Vec) window(s int) uint64 {
	q, b := s>>6, uint(s)&63 // floor division, also for negative s
	return v.word(q)>>b | v.word(q+1)<<(64-b)
}

// word returns word i of v, or 0 when i is out of range.
func (v Vec) word(i int) uint64 {
	if uint(i) < uint(len(v)) {
		return v[i]
	}
	return 0
}

// Transpose writes the transpose of the n×n bit matrix src into dst:
// bit i of dst[j] becomes bit j of src[i], for i, j < n. Rows of src
// must hold at least WordsFor(n) words with every bit at or beyond n
// zero; dst needs n rows sized for n bits, and must not share storage
// with src. The matrix is cut into 64×64 tiles: tile (bi, bj) — rows
// 64bi.., word bj — is gathered into a stack array, transposed there by
// transpose64, and scattered to rows 64bj.., word bi of dst.
// Transpose does not allocate.
func Transpose(dst, src []Vec, n int) {
	var t [64]uint64
	words := WordsFor(n)
	for bi := 0; bi < words; bi++ {
		r0 := bi << 6
		rows := min(64, n-r0)
		for bj := 0; bj < words; bj++ {
			c0 := bj << 6
			cols := min(64, n-c0)
			for r := 0; r < rows; r++ {
				t[r] = src[r0+r][bj]
			}
			clear(t[rows:])
			transpose64(&t)
			for c := 0; c < cols; c++ {
				dst[c0+c][bi] = t[c]
			}
		}
	}
}

// transpose64 transposes the 64×64 bit tile a in place (bit j of a[i]
// swaps with bit i of a[j]) with the recursive block swap of Hacker's
// Delight §7-3: six rounds, each exchanging the off-diagonal j×j blocks
// (j = 32, 16, …, 1) of every 2j×2j block by one masked XOR swap per
// row pair.
func transpose64(a *[64]uint64) {
	swapBlocks(a, 32, 0x00000000ffffffff)
	swapBlocks(a, 16, 0x0000ffff0000ffff)
	swapBlocks(a, 8, 0x00ff00ff00ff00ff)
	swapBlocks(a, 4, 0x0f0f0f0f0f0f0f0f)
	swapBlocks(a, 2, 0x3333333333333333)
	swapBlocks(a, 1, 0x5555555555555555)
}

// swapBlocks is one transpose64 round: for each row k whose bit j is
// clear, the bits of row k selected by m<<j trade places with the bits
// of row k+j selected by m.
func swapBlocks(a *[64]uint64, j uint, m uint64) {
	for base := uint(0); base < 64; base += 2 * j {
		for k := base; k < base+j; k++ {
			t := (a[k&63]>>j ^ a[(k+j)&63]) & m
			a[(k+j)&63] ^= t
			a[k&63] ^= t << j
		}
	}
}
