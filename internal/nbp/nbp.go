// Package nbp implements the non-bit-parallel aggregation baseline of the
// paper (§III introduction): the method suggested by BitWeaving for
// aggregating after a bit-parallel scan.
//
// For each set bit of the filter bit vector F — found with the
// F AND (F-1) erasure loop — the corresponding data value is reconstructed
// from its packed form into a standalone 64-bit word, and the aggregate is
// computed over the plain values. The reconstruction is the cost the
// bit-parallel algorithms of package core avoid: a VBP value gathers one
// bit from each of k words; an HBP value shifts and masks one field from
// each of its B bit-group words.
//
// MEDIAN collects the reconstructed values and runs quickselect — the
// natural plain-form r-selection.
package nbp

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
)

// Count returns the number of tuples passing the filter. Counting needs no
// reconstruction, so the paper's NBP and BP COUNT coincide.
func Count(f *bitvec.Bitmap) uint64 {
	return uint64(f.Count())
}

// valueSource reconstructs tuple i to plain form. Both layouts implement it.
type valueSource interface {
	At(i int) uint64
	Len() int
}

// Quickselect returns the r-th smallest element (1-based) of vals,
// reordering vals in place. It uses median-of-three pivoting with a
// three-way partition, so duplicate-heavy inputs stay linear.
func Quickselect(vals []uint64, r uint64) uint64 {
	lo, hi := 0, len(vals)-1
	k := int(r - 1)
	for lo < hi {
		p := medianOfThree(vals, lo, hi)
		lt, gt := partition3(vals, lo, hi, p)
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return vals[k]
		}
	}
	return vals[k]
}

// medianOfThree returns a pivot value drawn from the ends and middle.
func medianOfThree(v []uint64, lo, hi int) uint64 {
	mid := int(uint(lo+hi) >> 1)
	a, b, c := v[lo], v[mid], v[hi]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// partition3 performs a Dutch-national-flag partition of v[lo..hi] around
// pivot p, returning the bounds [lt, gt] of the equal run.
func partition3(v []uint64, lo, hi int, p uint64) (lt, gt int) {
	lt, gt = lo, hi
	i := lo
	for i <= gt {
		switch {
		case v[i] < p:
			v[i], v[lt] = v[lt], v[i]
			lt++
			i++
		case v[i] > p:
			v[i], v[gt] = v[gt], v[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// Compile-time checks that both layouts satisfy the reconstruction
// interface.
var (
	_ valueSource = (*vbp.Column)(nil)
	_ valueSource = (*hbp.Column)(nil)
)
