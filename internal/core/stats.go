package core

import "bpagg/internal/hbp"

// Observability helpers for the radix descents: a round's work is fully
// determined by the layout geometry and which segments hold live
// candidates, so the rank drivers charge it analytically with the
// functions below (the other kernels count their own work in FusedStats).
// Either way the counts are independent of thread count.

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
