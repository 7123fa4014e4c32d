package core

import (
	"math/bits"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// SumOverflowPossible reports whether SUM over any selection of n k-bit
// codes could exceed uint64: n·(2^k−1) ≥ 2^64. The test is column-level
// (it ignores the actual selection and data), so a true result only means
// the checked 128-bit kernels must run — they report overflow exactly.
// A false result is a proof: no selection of the column can wrap, and the
// unchecked kernels stay on their fast path.
func SumOverflowPossible(k, n int) bool {
	if k <= 0 || n <= 0 {
		return false
	}
	hi, _ := bits.Mul64(uint64(n), word.LowMask(k))
	return hi != 0
}

// SumCacheExactK is the widest code width at which a per-segment sum
// cache entry is trusted by the checked kernels: a segment holds at most
// 64 values, so its true sum is below 2^(k+6), and the uint64 zSum cannot
// itself have wrapped when k ≤ 58. For wider codes the checked kernels
// recompute the segment instead of serving the cache. Exported for the
// range index builder, which applies the same trust bound.
const SumCacheExactK = 58

const sumCacheExactK = SumCacheExactK

// add128, addShift128 and add128Shifted are the 128-bit accumulator
// primitives, shared with the prefix-sum range index via internal/word.
func add128(hi, lo, v uint64) (uint64, uint64) {
	return word.Add128(hi, lo, v)
}

func addShift128(hi, lo, v uint64, s uint) (uint64, uint64) {
	return word.AddShift128(hi, lo, v, s)
}

func add128Shifted(hi, lo, vhi, vlo uint64, s uint) (uint64, uint64) {
	return word.Add128Shifted(hi, lo, vhi, vlo, s)
}

// VBPSumRange128 is the checked twin of VBPSumRange: identical per-bit
// popcount accumulation (bSum[p] counts selected rows and cannot wrap),
// with the weighted shift-combine carried out in 128 bits.
func VBPSumRange128(col *vbp.Column, f *bitvec.Bitmap, segLo, segHi int) (hi, lo uint64) {
	k := col.K()
	bSum := make([]uint64, k)
	vbpBSumRange(col, f, bSum, segLo, segHi)
	for p := 0; p < k; p++ {
		hi, lo = addShift128(hi, lo, bSum[p], uint(k-1-p))
	}
	return hi, lo
}

// HBPSumRange128 is the checked twin of HBPSumRange. Per-group partial
// sums accumulate in 128 bits (one add per segment — the per-segment part
// of a group is at most 64 fields of τ ≤ 31 bits and cannot wrap), and
// the final weighted combine shifts the 128-bit group totals. Only the
// slow Gilles–Miller loop shape is kept: the checked path runs rarely
// (only when overflow is possible at all) and favors clarity.
func HBPSumRange128(col *hbp.Column, f *bitvec.Bitmap, segLo, segHi int) (hi, lo uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)

	his := make([]uint64, b)
	los := make([]uint64, b)
	parts := make([]uint64, b)
	for seg := segLo; seg < segHi; seg++ {
		fw := segWindow(f, col, seg)
		if fw == 0 {
			continue
		}
		for g := range parts {
			parts[g] = 0
		}
		base := seg * subs
		for t := 0; t < subs; t++ {
			md := col.SubSegmentDelims(fw, t)
			if md == 0 {
				continue
			}
			m := word.SpreadDelims(md, tau)
			for g := 0; g < b; g++ {
				parts[g] += summer.Sum(gws[g][base+t] & m)
			}
		}
		for g := 0; g < b; g++ {
			his[g], los[g] = add128(his[g], los[g], parts[g])
		}
	}
	for g := 0; g < b; g++ {
		hi, lo = add128Shifted(hi, lo, his[g], los[g], uint((b-1-g)*tau))
	}
	return hi, lo
}

// VBPFusedSumCount128 is the checked twin of VBPFusedSumCount. All-match
// segments are served from the zSum cache only when k ≤ sumCacheExactK
// (the cache entry itself is exact there); wider segments recompute.
func VBPFusedSumCount128(col *vbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (hi, lo, cnt uint64) {
	k := col.K()
	bSum := make([]uint64, k)
	cacheOK := k <= sumCacheExactK
	acc := newVBPBlockSum(k, bSum)
	for seg := segLo; seg < segHi; seg++ {
		fw, allMatch := FusedWindow(preds, seg, st)
		if fw == 0 {
			continue
		}
		if allMatch && cacheOK {
			if zs, ok := col.SegmentSum(seg); ok {
				hi, lo = add128(hi, lo, zs)
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
		hi, lo = addShift128(hi, lo, bSum[p], uint(k-1-p))
	}
	return hi, lo, cnt
}

// HBPFusedSumCount128 is the checked twin of HBPFusedSumCount, with the
// same cache gate and 128-bit accumulation as HBPSumRange128.
func HBPFusedSumCount128(col *hbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (hi, lo, cnt uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)
	cacheOK := col.K() <= sumCacheExactK

	his := make([]uint64, b)
	los := make([]uint64, b)
	parts := make([]uint64, b)
	for seg := segLo; seg < segHi; seg++ {
		fw, allMatch := FusedWindow(preds, seg, st)
		if fw == 0 {
			continue
		}
		if allMatch && cacheOK {
			if zs, ok := col.SegmentSum(seg); ok {
				hi, lo = add128(hi, lo, zs)
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
		for g := range parts {
			parts[g] = 0
		}
		base := seg * subs
		for t := 0; t < subs; t++ {
			md := col.SubSegmentDelims(fw, t)
			if md == 0 {
				continue
			}
			m := word.SpreadDelims(md, tau)
			for g := 0; g < b; g++ {
				parts[g] += summer.Sum(gws[g][base+t] & m)
			}
		}
		for g := 0; g < b; g++ {
			his[g], los[g] = add128(his[g], los[g], parts[g])
		}
	}
	for g := 0; g < b; g++ {
		hi, lo = add128Shifted(hi, lo, his[g], los[g], uint((b-1-g)*tau))
	}
	return hi, lo, cnt
}
