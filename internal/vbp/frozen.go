package vbp

import (
	"math/bits"

	"bpagg/internal/word"
)

// Frozen is an immutable view over a column's sealed packed words, captured
// for the prefix-sum range index (internal/rangeidx). Sealed segments are
// write-once — appends only ever mutate the open tail segment's words, and
// slice growth either writes beyond the captured length or reallocates,
// leaving the captured backing intact — so a Frozen view taken under the
// table's append lock can be read concurrently with later appends.
//
// Its kernels are the fringe kernels of the range index: a range query's
// two partial boundary segments are aggregated under an explicit tuple
// mask, the same register-resident filter-word shape the fused
// scan→aggregate pipeline uses.
type Frozen struct {
	k      int
	groups []Group // Words headers truncated to the sealed segments
}

// Freeze captures the first sealed segments of the column as a Frozen view.
// It must be called while no append is in flight (the table's append lock).
func (c *Column) Freeze(sealed int) *Frozen {
	f := &Frozen{k: c.k, groups: make([]Group, len(c.groups))}
	for g := range c.groups {
		gr := c.groups[g]
		n := sealed * gr.Bits
		if n > len(gr.Words) {
			n = len(gr.Words)
		}
		f.groups[g] = Group{StartBit: gr.StartBit, Bits: gr.Bits, Words: gr.Words[:n:n]}
	}
	return f
}

// SegRows returns the number of tuples per segment.
func (f *Frozen) SegRows() int { return SegBits }

// SegWords returns the packed words one segment occupies: one per bit
// position.
func (f *Frozen) SegWords() int { return f.k }

// SumMasked returns the 128-bit sum of the segment's tuples selected by
// mask (bit j = tuple j of the segment), plus the packed words touched.
// It is the per-bit-plane popcount kernel of core.VBPSumCount restricted to one
// segment: popcount(plane & mask) tuples contribute 2^(k-1-p) each.
func (f *Frozen) SumMasked(seg int, mask uint64) (hi, lo uint64, words int) {
	if mask == 0 {
		return 0, 0, 0
	}
	for g := range f.groups {
		gr := &f.groups[g]
		base := seg * gr.Bits
		for b := 0; b < gr.Bits; b++ {
			cnt := uint64(bits.OnesCount64(gr.Words[base+b] & mask))
			hi, lo = word.AddShift128(hi, lo, cnt, uint(f.k-1-(gr.StartBit+b)))
		}
	}
	return hi, lo, f.k
}

// MinMasked returns the minimum of the segment's masked tuples via a
// bit-plane descent (MSB to LSB): tuples with a zero at the current plane
// are strictly smaller, so they become the new candidate set whenever any
// survive. ok is false when the mask is empty.
func (f *Frozen) MinMasked(seg int, mask uint64) (uint64, bool) {
	if mask == 0 {
		return 0, false
	}
	cand := mask
	var v uint64
	for g := range f.groups {
		gr := &f.groups[g]
		base := seg * gr.Bits
		for b := 0; b < gr.Bits; b++ {
			w := gr.Words[base+b]
			if z := cand &^ w; z != 0 {
				cand = z
			} else {
				v |= 1 << uint(f.k-1-(gr.StartBit+b))
			}
		}
	}
	return v, true
}

// MaxMasked is the dual of MinMasked: tuples with a one at the current
// plane are strictly larger.
func (f *Frozen) MaxMasked(seg int, mask uint64) (uint64, bool) {
	if mask == 0 {
		return 0, false
	}
	cand := mask
	var v uint64
	for g := range f.groups {
		gr := &f.groups[g]
		base := seg * gr.Bits
		for b := 0; b < gr.Bits; b++ {
			if o := cand & gr.Words[base+b]; o != 0 {
				cand = o
				v |= 1 << uint(f.k-1-(gr.StartBit+b))
			}
		}
	}
	return v, true
}
