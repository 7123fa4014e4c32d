package core

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
)

// Observability helpers: the aggregation kernels' work is fully
// determined by the layout geometry and which segments hold selected
// tuples, so the drivers compute their stats analytically with the
// functions below instead of instrumenting the kernel loops. That keeps
// the hot paths byte-identical whether collection is on or off, and
// makes the counts independent of thread count.

// VBPLiveSegments counts the segments in [segLo, segHi) whose filter
// word selects at least one tuple — the segments a dense VBP kernel
// (SUM/MIN/MAX fold) processes; each costs k packed words.
func VBPLiveSegments(f *bitvec.Bitmap, segLo, segHi int) uint64 {
	var n uint64
	for seg := segLo; seg < segHi; seg++ {
		if f.Word(seg) != 0 {
			n++
		}
	}
	return n
}

// VBPLiveCandidates counts the segments in [segLo, segHi) with at least
// one live candidate — the segments one VBP radix round reads (one
// bit-position word each in the count pass, one more in the refine
// pass).
func VBPLiveCandidates(v []uint64, segLo, segHi int) uint64 {
	var n uint64
	for seg := segLo; seg < segHi; seg++ {
		if v[seg] != 0 {
			n++
		}
	}
	return n
}

// HBPLiveWindows counts, over segments [segLo, segHi) of an HBP column,
// the segments whose filter window selects at least one tuple and the
// sub-segments holding at least one selected tuple. A dense HBP kernel
// reads NumGroups packed words per live sub-segment.
func HBPLiveWindows(col *hbp.Column, f *bitvec.Bitmap, segLo, segHi int) (segs, subs uint64) {
	nsub := col.SubSegments()
	for seg := segLo; seg < segHi; seg++ {
		fw := segWindow(f, col, seg)
		if fw == 0 {
			continue
		}
		segs++
		for t := 0; t < nsub; t++ {
			if col.SubSegmentDelims(fw, t) != 0 {
				subs++
			}
		}
	}
	return segs, subs
}

// HBPLiveCandidateSubs counts the sub-segments in [segLo, segHi) with at
// least one live candidate — what one HBP radix round reads (one
// word-group word each in the histogram pass, one more in the refine
// pass).
func HBPLiveCandidateSubs(col *hbp.Column, v []uint64, segLo, segHi int) uint64 {
	nsub := col.SubSegments()
	var subs uint64
	for seg := segLo; seg < segHi; seg++ {
		fw := v[seg]
		if fw == 0 {
			continue
		}
		for t := 0; t < nsub; t++ {
			if col.SubSegmentDelims(fw, t) != 0 {
				subs++
			}
		}
	}
	return subs
}
