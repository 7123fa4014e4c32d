package core

import (
	"math/bits"

	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/word"
)

// hbpLiveSubs counts the sub-segments of window fw holding at least one
// selected tuple — the per-segment unit of the dense-kernel accounting
// (hbpCollectDense's analytic definition, applied to one window).
func hbpLiveSubs(col *hbp.Column, fw uint64) uint64 {
	subs := col.SubSegments()
	var n uint64
	for t := 0; t < subs; t++ {
		if col.SubSegmentDelims(fw, t) != 0 {
			n++
		}
	}
	return n
}

// HBPFusedSumCount computes SUM and COUNT over segments [segLo, segHi) in
// one fused pass, mirroring HBPSumRange's Gilles–Miller fold (with the
// same Fast/slow twin loops) on filter words that come straight from the
// predicate conjunction. All-match segments are answered from the
// per-segment sum cache.
func HBPFusedSumCount(col *hbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (sum, cnt uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)

	sums := make([]uint64, b)
	if summer.Fast() {
		flush, fw2, fin, keep, mul := summer.Consts()
		peelV, peelF := summer.PeelMasks()
		var masks [word.MaxTau + 1]uint64
		allActive := uint64(1)<<uint(subs) - 1
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
			var active uint64
			for t := 0; t < subs; t++ {
				m := word.SpreadDelims(col.SubSegmentDelims(fw, t), tau)
				masks[t] = m
				if m != 0 {
					active |= 1 << uint(t)
				}
			}
			st.SegmentsAggregated++
			st.WordsTouched += uint64(bits.OnesCount64(active)) * uint64(b)
			base := seg * subs
			if active == allActive {
				for g := 0; g < b; g++ {
					run := gws[g][base : base+subs]
					var part uint64
					for t, w := range run {
						w &= masks[t]
						x := (w &^ peelF) << flush
						x += x >> fw2
						x &= keep
						part += (x*mul)>>fin + w&peelV
					}
					sums[g] += part
				}
				continue
			}
			for g := 0; g < b; g++ {
				run := gws[g][base : base+subs]
				var part uint64
				for a := active; a != 0; a &= a - 1 {
					t := bits.TrailingZeros64(a)
					w := run[t] & masks[t]
					x := (w &^ peelF) << flush
					x += x >> fw2
					x &= keep
					part += (x*mul)>>fin + w&peelV
				}
				sums[g] += part
			}
		}
	} else {
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
			st.WordsTouched += hbpLiveSubs(col, fw) * uint64(b)
			base := seg * subs
			for t := 0; t < subs; t++ {
				md := col.SubSegmentDelims(fw, t)
				if md == 0 {
					continue
				}
				m := word.SpreadDelims(md, tau)
				for g := 0; g < b; g++ {
					sums[g] += summer.Sum(gws[g][base+t] & m)
				}
			}
		}
	}
	for g := 0; g < b; g++ {
		sum += sums[g] << uint((b-1-g)*tau)
	}
	return sum, cnt
}

// HBPFusedFoldExtreme folds segments [segLo, segHi) into temp via
// SUB-SLOTMIN/SUB-SLOTMAX with fused filter words; all-match segments are
// served from the exact zone extremes into the scalar running best.
func HBPFusedFoldExtreme(col *hbp.Column, preds []scan.WindowPred, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	delim := col.DelimMask()
	x := make([]uint64, b)
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
		st.WordsTouched += hbpLiveSubs(col, fw) * uint64(b)
		base := seg * subs
		for t := 0; t < subs; t++ {
			md := col.SubSegmentDelims(fw, t)
			if md == 0 {
				continue
			}
			for g := 0; g < b; g++ {
				x[g] = col.GroupWords(g)[base+t]
			}
			sel := hbpSlotLanes(x, temp, delim, wantMin)
			sel &= md
			if sel == 0 {
				continue
			}
			m := word.SpreadDelims(sel, tau)
			for g := 0; g < b; g++ {
				temp[g] = word.Blend(m, x[g], temp[g])
			}
		}
	}
	return best, any, cnt
}

// HBPFusedCount counts the tuples selected by the predicate conjunction
// over segments [segLo, segHi) without materializing anything. COUNT
// touches no packed aggregate words, so only the scan-side counters move.
func HBPFusedCount(col *hbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (cnt uint64) {
	var oc word.OnesCounter
	for seg := segLo; seg < segHi; seg++ {
		fw, _ := FusedWindow(preds, seg, st)
		oc.Feed(fw & word.LowMask(col.SegmentValues(seg)))
	}
	return oc.Total()
}

// HBPFusedCandidates fills the per-segment rank candidate vectors
// directly from the predicate conjunction — the fused replacement for
// scan + NewHBPCandidates — and returns the number of selected tuples.
func HBPFusedCandidates(col *hbp.Column, preds []scan.WindowPred, v []uint64, segLo, segHi int, st *FusedStats) (cnt uint64) {
	var oc word.OnesCounter
	for seg := segLo; seg < segHi; seg++ {
		fw, _ := FusedWindow(preds, seg, st)
		fw &= word.LowMask(col.SegmentValues(seg))
		v[seg] = fw
		oc.Feed(fw)
	}
	return oc.Total()
}
