package core

import (
	"math/bits"

	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// VBPFusedSumCount computes SUM and COUNT over segments [segLo, segHi) in
// one fused pass: each segment's filter word comes straight from the
// predicate conjunction (never a bitmap), all-match segments are answered
// from the per-segment sum cache, and the rest run the per-bit popcount
// body of VBPSumRange.
func VBPFusedSumCount(col *vbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (sum, cnt uint64) {
	k := col.K()
	bSum := make([]uint64, k)
	acc := newVBPBlockSum(k, bSum)
	for seg := segLo; seg < segHi; seg++ {
		fw, allMatch := FusedWindow(preds, seg, st)
		if fw == 0 {
			continue
		}
		if allMatch {
			if zs, ok := col.SegmentSum(seg); ok {
				sum += zs
				cnt += uint64(col.SegmentValues(seg))
				st.SegmentsCacheServed++
				continue
			}
		}
		fw &= word.LowMask(col.SegmentValues(seg))
		if fw == 0 {
			continue
		}
		cnt += uint64(bits.OnesCount64(fw))
		st.SegmentsAggregated++
		st.WordsTouched += uint64(k)
		acc.push(col, seg, fw)
	}
	acc.finish(col)
	for p := 0; p < k; p++ {
		sum += bSum[p] << uint(k-1-p)
	}
	return sum, cnt
}

// VBPFusedFoldExtreme folds segments [segLo, segHi) into temp via
// SLOTMIN/SLOTMAX with fused filter words. All-match segments are served
// from the exact zone extremes into the scalar running best instead of
// the fold; the caller merges best (when any is true) with the
// reconstructed temp finalists.
func VBPFusedFoldExtreme(col *vbp.Column, preds []scan.WindowPred, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	k := col.K()
	groups := col.Groups()
	x := make([]uint64, k)
	for seg := segLo; seg < segHi; seg++ {
		fw, allMatch := FusedWindow(preds, seg, st)
		if fw == 0 {
			continue
		}
		if allMatch {
			if lo, hi, ok := col.SegmentRangeExact(seg); ok {
				v := lo
				if !wantMin {
					v = hi
				}
				if !any || wantMin && v < best || !wantMin && v > best {
					best = v
				}
				any = true
				cnt += uint64(col.SegmentValues(seg))
				st.SegmentsCacheServed++
				continue
			}
		}
		fw &= word.LowMask(col.SegmentValues(seg))
		if fw == 0 {
			continue
		}
		cnt += uint64(bits.OnesCount64(fw))
		st.SegmentsAggregated++
		st.WordsTouched += uint64(k)
		for g := range groups {
			gr := &groups[g]
			base := seg * gr.Bits
			copy(x[gr.StartBit:gr.StartBit+gr.Bits], gr.Words[base:base+gr.Bits])
		}
		var m uint64
		if wantMin {
			m, _ = scan.VBPSlotCompare(x, temp)
		} else {
			m, _ = scan.VBPSlotCompareGT(x, temp)
		}
		m &= fw
		if m == 0 {
			continue
		}
		for p := 0; p < k; p++ {
			temp[p] = word.Blend(m, x[p], temp[p])
		}
	}
	return best, any, cnt
}

// VBPFusedCount counts the tuples selected by the predicate conjunction
// over segments [segLo, segHi) without materializing anything: each
// filter word is popcounted while register-resident. COUNT touches no
// packed aggregate words, so only the scan-side counters move.
func VBPFusedCount(col *vbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (cnt uint64) {
	var oc word.OnesCounter
	for seg := segLo; seg < segHi; seg++ {
		fw, _ := FusedWindow(preds, seg, st)
		oc.Feed(fw & word.LowMask(col.SegmentValues(seg)))
	}
	return oc.Total()
}

// VBPFusedCandidates fills the per-segment rank candidate vectors
// directly from the predicate conjunction — the fused replacement for
// scan + NewVBPCandidates — and returns the number of selected tuples.
// The radix rounds then run unchanged on v.
func VBPFusedCandidates(col *vbp.Column, preds []scan.WindowPred, v []uint64, segLo, segHi int, st *FusedStats) (cnt uint64) {
	var oc word.OnesCounter
	for seg := segLo; seg < segHi; seg++ {
		fw, _ := FusedWindow(preds, seg, st)
		fw &= word.LowMask(col.SegmentValues(seg))
		v[seg] = fw
		oc.Feed(fw)
	}
	return oc.Total()
}
