package hbp

import (
	"math/bits"

	"bpagg/internal/word"
)

// Frozen is an immutable view over a column's sealed packed words, captured
// for the prefix-sum range index (internal/rangeidx) — see vbp.Frozen for
// the immutability argument. Its kernels aggregate one segment under an
// explicit dense tuple mask, the fringe shape of a range query.
type Frozen struct {
	k, tau, b, c int
	delim        uint64
	summer       word.Summer
	groups       [][]uint64 // headers truncated to the sealed segments
}

// Freeze captures the first sealed segments of the column as a Frozen view.
// It must be called while no append is in flight (the table's append lock).
func (c *Column) Freeze(sealed int) *Frozen {
	f := &Frozen{
		k: c.k, tau: c.tau, b: c.b, c: c.c,
		delim:  c.delim,
		summer: word.NewSummer(c.tau, c.c),
		groups: make([][]uint64, c.b),
	}
	for g := range c.groups {
		n := sealed * (c.tau + 1)
		if n > len(c.groups[g]) {
			n = len(c.groups[g])
		}
		f.groups[g] = c.groups[g][:n:n]
	}
	return f
}

// SegRows returns the number of tuples per segment, c*(tau+1).
func (f *Frozen) SegRows() int { return f.c * (f.tau + 1) }

// SegWords returns the packed words one segment occupies: tau+1
// sub-segment words per bit-group.
func (f *Frozen) SegWords() int { return f.b * (f.tau + 1) }

// SumMasked returns the 128-bit sum of the segment's tuples selected by the
// dense mask (bit j = tuple j of the segment), plus the packed words
// touched. It is the in-word-sum kernel of core.HBPSumCount restricted to one
// segment: per sub-segment the mask aligns onto the delimiter lane, spreads
// over the value lanes, and each group's masked word folds to a partial sum
// weighted by the group's bit position.
func (f *Frozen) SumMasked(seg int, mask uint64) (hi, lo uint64, words int) {
	if mask == 0 {
		return 0, 0, 0
	}
	base := seg * (f.tau + 1)
	for g := 0; g < f.b; g++ {
		var part uint64
		gw := f.groups[g]
		for t := 0; t <= f.tau; t++ {
			md := mask << uint(f.tau-t) & f.delim
			if md == 0 {
				continue
			}
			m := word.SpreadDelims(md, f.tau)
			part += f.summer.Sum(gw[base+t] & m)
			if g == 0 {
				words += f.b
			}
		}
		hi, lo = word.AddShift128(hi, lo, part, uint((f.b-1-g)*f.tau))
	}
	return hi, lo, words
}

// at reconstructs the segment-local tuple i from the frozen words.
func (f *Frozen) at(seg, i int) uint64 {
	t, s := i%(f.tau+1), i/(f.tau+1)
	base := seg * (f.tau + 1)
	var v uint64
	for g := 0; g < f.b; g++ {
		v = v<<uint(f.tau) | word.Field(f.groups[g][base+t], f.tau, s)
	}
	return v
}

// MinMasked returns the minimum of the segment's masked tuples; ok is
// false when the mask is empty. A fringe holds at most SegRows tuples, so
// per-tuple field extraction is cheap enough here.
func (f *Frozen) MinMasked(seg int, mask uint64) (uint64, bool) {
	best, found := uint64(0), false
	for m := mask; m != 0; m &= m - 1 {
		v := f.at(seg, bits.TrailingZeros64(m))
		if !found || v < best {
			best = v
		}
		found = true
	}
	return best, found
}

// MaxMasked is the dual of MinMasked.
func (f *Frozen) MaxMasked(seg int, mask uint64) (uint64, bool) {
	best, found := uint64(0), false
	for m := mask; m != 0; m &= m - 1 {
		v := f.at(seg, bits.TrailingZeros64(m))
		if !found || v > best {
			best = v
		}
		found = true
	}
	return best, found
}
