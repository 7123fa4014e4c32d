// Package bitvec implements dense filter bit vectors.
//
// A Bitmap represents the filter bit vector F of the paper: bit i is 1 iff
// tuple i passed the filter. Bits are stored LSB-first in 64-bit words, so
// tuple i lives at bit i%64 of word i/64. The bits at positions >= Len() of
// the last word are always zero — every mutating operation restores that
// invariant, which lets Count, aggregation loops, and word-at-a-time readers
// skip per-call boundary checks.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-length dense bit vector.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero Bitmap of n bits. n must be >= 0.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns an all-one Bitmap of n bits.
func NewFull(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	return b
}

// FromWords adopts words as the backing store of an n-bit Bitmap. The
// slice length must match New(n)'s allocation; tail bits are cleared.
func FromWords(n int, words []uint64) *Bitmap {
	if want := (n + wordBits - 1) / wordBits; len(words) != want {
		panic(fmt.Sprintf("bitvec: %d words for %d bits, want %d", len(words), n, want))
	}
	b := &Bitmap{n: n, words: words}
	b.trim()
	return b
}

// FromBools builds a Bitmap from a boolean slice; bit i is set iff v[i].
func FromBools(v []bool) *Bitmap {
	b := New(len(v))
	for i, x := range v {
		if x {
			b.Set(i)
		}
	}
	return b
}

// trim clears the unused high bits of the last word.
func (b *Bitmap) trim() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of bits in the Bitmap.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words. The caller must preserve the
// zero-tail-bits invariant when mutating them.
func (b *Bitmap) Words() []uint64 { return b.words }

// NumWords returns the number of backing 64-bit words.
func (b *Bitmap) NumWords() int { return len(b.words) }

// Word returns the i-th aligned 64-bit word (bits [64i, 64i+64)).
func (b *Bitmap) Word(i int) uint64 { return b.words[i] }

// SetWord overwrites the i-th aligned word. If i is the last word, the bits
// beyond Len() are discarded.
func (b *Bitmap) SetWord(i int, w uint64) {
	b.words[i] = w
	if i == len(b.words)-1 {
		b.trim()
	}
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitvec: Clear(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetBool sets bit i to v.
func (b *Bitmap) SetBool(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Count returns the number of set bits (the COUNT aggregate over F).
func (b *Bitmap) Count() int {
	var c int
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Resize changes the length to n bits. Growing appends zero bits; shrinking
// discards and zeroes the tail.
func (b *Bitmap) Resize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	nw := (n + wordBits - 1) / wordBits
	for len(b.words) < nw {
		b.words = append(b.words, 0)
	}
	b.words = b.words[:nw]
	b.n = n
	b.trim()
}

// And intersects b with o in place and returns b. Lengths must match.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	b.checkLen(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
	return b
}

// Or unions b with o in place and returns b. Lengths must match.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	b.checkLen(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
	return b
}

// AndNot removes o's bits from b in place and returns b. Lengths must match.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	b.checkLen(o)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
	return b
}

// Xor symmetric-differences b with o in place and returns b.
func (b *Bitmap) Xor(o *Bitmap) *Bitmap {
	b.checkLen(o)
	for i := range b.words {
		b.words[i] ^= o.words[i]
	}
	return b
}

// Not complements b in place and returns b.
func (b *Bitmap) Not() *Bitmap {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
	return b
}

func (b *Bitmap) checkLen(o *Bitmap) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", b.n, o.n))
	}
}

// Extract reads count bits (count in [0, 64]) starting at bit offset start.
// Bits beyond Len() read as zero, so callers may extract a full window that
// overhangs the end of the vector.
func (b *Bitmap) Extract(start, count int) uint64 {
	if count == 0 {
		return 0
	}
	if count < 0 || count > wordBits {
		panic(fmt.Sprintf("bitvec: Extract count %d out of range", count))
	}
	wi, off := start/wordBits, uint(start%wordBits)
	var w uint64
	if wi < len(b.words) {
		w = b.words[wi] >> off
	}
	if off != 0 && wi+1 < len(b.words) {
		w |= b.words[wi+1] << (wordBits - off)
	}
	if count < wordBits {
		w &= (uint64(1) << uint(count)) - 1
	}
	return w
}

// Deposit writes the low count bits of w at bit offset start, replacing the
// previous contents of that window. Writes beyond Len() are discarded.
func (b *Bitmap) Deposit(start, count int, w uint64) {
	if count == 0 {
		return
	}
	if count < 0 || count > wordBits {
		panic(fmt.Sprintf("bitvec: Deposit count %d out of range", count))
	}
	mask := ^uint64(0) >> uint(wordBits-count)
	w &= mask
	wi, off := start/wordBits, uint(start%wordBits)
	last := len(b.words) - 1
	if wi > last {
		return
	}
	b.words[wi] = b.words[wi]&^(mask<<off) | w<<off
	if int(off)+count > wordBits && wi < last {
		wi++
		rem := uint(wordBits) - off
		b.words[wi] = b.words[wi]&^(mask>>rem) | w>>rem
	}
	// Only the last word has bits beyond Len; a scan depositing one
	// window per segment reaches it once.
	if wi == last {
		b.trim()
	}
}

// NextOne returns the position of the first set bit at or after from, or -1
// if there is none.
func (b *Bitmap) NextOne(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi, off := from/wordBits, uint(from%wordBits)
	w := b.words[wi] >> off
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// ForEachOne calls fn for every set bit in ascending order.
func (b *Bitmap) ForEachOne(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1 // unset the lowest 1 (paper step 3)
		}
	}
}

// Rank returns the number of set bits strictly below position i.
func (b *Bitmap) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > b.n {
		i = b.n
	}
	wi, off := i/wordBits, uint(i%wordBits)
	var c int
	for j := 0; j < wi; j++ {
		c += bits.OnesCount64(b.words[j])
	}
	if off != 0 {
		c += bits.OnesCount64(b.words[wi] & ((1 << off) - 1))
	}
	return c
}

// String renders the bitmap as a 0/1 string, tuple 0 first, for debugging.
func (b *Bitmap) String() string {
	buf := make([]byte, b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
