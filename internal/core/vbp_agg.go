package core

import (
	"math/bits"
	"slices"

	"bpagg/internal/bitvec"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// VBPSum computes SUM over the filtered tuples of a VBP column
// (Algorithm 1). The caller must ensure the true sum fits in uint64; with
// k-bit values that holds whenever n < 2^(64-k).
func VBPSum(col *vbp.Column, f *bitvec.Bitmap) uint64 {
	checkFilter(col.Len(), f)
	_, sum, _ := VBPSumCount(col, Bits(f), 0, col.NumSegments(), &FusedStats{})
	return sum
}

// VBPSumCount computes SUM and COUNT of the tuples src selects over
// segments [segLo, segHi) — the partition unit for multi-threaded
// execution (§IV-B). Bit position p of the value contributes
// popcount(W_p AND F) · 2^(k-1-p); the per-position counts accumulate
// through the carry-save tree of DESIGN.md §14, a block of posPopBlock
// consecutive segments at a time (a zero, pruned or cache-served window is
// a zero lane, a carry-save no-op), so only k shifts happen in total. The
// total is carried in 128 bits: hi is nonzero only on a column where
// SumOverflowPossible holds. All-match windows are served from the
// per-segment sum cache when its entries are exact (cacheExact).
func VBPSumCount(col *vbp.Column, src Filter, segLo, segHi int, st *FusedStats) (hi, lo, cnt uint64) {
	k, n := col.K(), col.Len()
	cacheOK := cacheExact(k, n)
	var pl vbpPlanes // built at the first live block: a cache-served range reads no plane
	backing := make([]uint64, 4*k)
	bSum, ones, twos, fours := backing[:k], backing[k:2*k], backing[2*k:3*k], backing[3*k:]
	r := src.reader(vbp.SegBits, n, st)
	var live uint64
	for seg := segLo; seg < segHi; seg += posPopBlock {
		fws := r.block(seg, min(posPopBlock, segHi-seg))
		for all := r.allLanes; all != 0 && cacheOK; all &= all - 1 {
			i := bits.TrailingZeros64(all)
			if zs, ok := col.SegmentSum(seg + i); ok {
				hi, lo = add128(hi, lo, zs)
				cnt += uint64(col.SegmentValues(seg + i))
				st.SegmentsCacheServed++
				fws[i] = 0
			}
		}
		if len(fws) < posPopBlock {
			for i, fw := range fws {
				if fw == 0 {
					continue
				}
				if pl.words == nil {
					pl = newVBPPlanes(col)
				}
				cnt += uint64(bits.OnesCount64(fw))
				live++
				for p := 0; p < k; p++ {
					bSum[p] += uint64(bits.OnesCount64(pl.word(p, seg+i) & fw))
				}
			}
			continue
		}
		f0, f1, f2, f3 := fws[0], fws[1], fws[2], fws[3]
		f4, f5, f6, f7 := fws[4], fws[5], fws[6], fws[7]
		if f0|f1|f2|f3|f4|f5|f6|f7 == 0 {
			continue
		}
		if pl.words == nil {
			pl = newVBPPlanes(col)
		}
		// A lane is live when its popcount c is nonzero: (c+63)>>6 == 1.
		c0, c1, c2, c3 := bits.OnesCount64(f0), bits.OnesCount64(f1), bits.OnesCount64(f2), bits.OnesCount64(f3)
		c4, c5, c6, c7 := bits.OnesCount64(f4), bits.OnesCount64(f5), bits.OnesCount64(f6), bits.OnesCount64(f7)
		cnt += uint64(c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7)
		live += uint64((c0+63)>>6 + (c1+63)>>6 + (c2+63)>>6 + (c3+63)>>6 + (c4+63)>>6 + (c5+63)>>6 + (c6+63)>>6 + (c7+63)>>6)
		pws, pstride, poff := pl.words, pl.stride, pl.off
		for p := 0; p < k; p++ {
			ws, stride, off := pws[p], pstride[p], poff[p]
			i0 := seg*stride + off
			i1, i2, i3 := i0+stride, i0+2*stride, i0+3*stride
			i4, i5, i6, i7 := i0+4*stride, i0+5*stride, i0+6*stride, i0+7*stride
			w0, w1, w2, w3 := ws[i0]&f0, ws[i1]&f1, ws[i2]&f2, ws[i3]&f3
			w4, w5, w6, w7 := ws[i4]&f4, ws[i5]&f5, ws[i6]&f6, ws[i7]&f7
			o, t, fr := ones[p], twos[p], fours[p]
			var tA, tB, fA, fB, eights uint64
			o, tA = word.CSA(o, w0, w1)
			o, tB = word.CSA(o, w2, w3)
			t, fA = word.CSA(t, tA, tB)
			o, tA = word.CSA(o, w4, w5)
			o, tB = word.CSA(o, w6, w7)
			t, fB = word.CSA(t, tA, tB)
			fr, eights = word.CSA(fr, fA, fB)
			ones[p], twos[p], fours[p] = o, t, fr
			if eights != 0 {
				bSum[p] += uint64(bits.OnesCount64(eights)) << 3
			}
		}
	}
	for p := 0; p < k; p++ {
		hi, lo = addShift128(hi, lo, bSum[p]+word.CSAFold(ones[p], twos[p], fours[p]), uint(k-1-p))
	}
	st.SegmentsAggregated += live
	st.WordsTouched += live * uint64(k)
	return hi, lo, cnt
}

// VBPFusedSumCount is VBPSumCount fed by a predicate conjunction, on a
// column where the sum cannot wrap.
func VBPFusedSumCount(col *vbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (sum, cnt uint64) {
	_, sum, cnt = VBPSumCount(col, Preds(preds), segLo, segHi, st)
	return sum, cnt
}

// VBPMin computes MIN over the filtered tuples (Algorithm 2). A running
// slot-wise minimum segment S_temp is folded with every segment via SLOTMIN
// (the staged BIT-PARALLEL-LESSTHAN of the scan substrate plus a blend);
// only the w finalist slots are reconstructed to plain form at the end.
// ok is false when no tuple passes the filter.
func VBPMin(col *vbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	return vbpExtreme(col, f, true)
}

// VBPMax computes MAX over the filtered tuples (the SLOTMAX variant of
// Algorithm 2).
func VBPMax(col *vbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	return vbpExtreme(col, f, false)
}

func vbpExtreme(col *vbp.Column, f *bitvec.Bitmap, wantMin bool) (uint64, bool) {
	checkFilter(col.Len(), f)
	if !f.Any() {
		return 0, false
	}
	temp := NewVBPExtremeTemp(col.K(), wantMin)
	VBPFold(col, Bits(f), temp, wantMin, 0, col.NumSegments(), &FusedStats{})
	return VBPFinishExtreme([][]uint64{temp}, col.K(), wantMin), true
}

// NewVBPExtremeTemp allocates the running slot-wise extreme segment S_temp,
// initialized to the identity (all slots 2^k-1 for MIN, 0 for MAX).
func NewVBPExtremeTemp(k int, wantMin bool) []uint64 {
	temp := make([]uint64, k)
	if wantMin {
		for p := range temp {
			temp[p] = ^uint64(0)
		}
	}
	return temp
}

// VBPFold folds the tuples src selects in segments [segLo, segHi) into
// temp via SLOTMIN (or SLOTMAX), one prune block at a time (bound.go): a
// window whose zone cannot beat its block's threshold is skipped before
// its filter word is read. All-match windows are served from the exact
// zone extremes into the scalar running best instead of the fold; the
// caller merges best (when any is true) with the reconstructed temp
// finalists. cnt counts the tuples of the windows read, so it is > 0 iff
// anything was selected, and is not the selected count.
func VBPFold(col *vbp.Column, src Filter, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	k := col.K()
	groups := col.Groups()
	var xs, bs [64]uint64
	x, blk := xs[:k], bs[:k]
	id := uint64(0) // the fold identity of every plane
	if wantMin {
		id = ^uint64(0)
	}
	r := src.reader(vbp.SegBits, col.Len(), st)
	var live, pruned uint64
	zMin, zMax := col.Zones() // sound bounds: ZoneRange's
	bd := newBound(zMin, zMax, wantMin)
	var refresh bool
	for seg := segLo; seg < segHi; {
		end := min(segHi, (seg/PruneBlock+1)*PruneBlock)
		for p := range blk {
			blk[p] = id
		}
		th, folded := thr{}, false
		for ; seg < end; seg++ {
			if bd.beaten(seg, th) {
				pruned++
				continue
			}
			fw := r.window(seg)
			if fw == 0 {
				continue
			}
			if r.allMatch {
				if lo, hi, ok := col.SegmentRangeExact(seg); ok {
					v := lo
					if !wantMin {
						v = hi
					}
					if !any || wantMin && v < best || !wantMin && v > best {
						best = v
					}
					any = true
					th = bd.offer(th, v)
					cnt += uint64(col.SegmentValues(seg))
					st.SegmentsCacheServed++
					continue
				}
			}
			cnt += uint64(bits.OnesCount64(fw))
			live++
			if len(groups) == 1 {
				x = groups[0].Words[seg*k : seg*k+k] // one group: the segment's planes are contiguous
			} else {
				for g := range groups {
					gr := &groups[g]
					base := seg * gr.Bits
					for b, w := range gr.Words[base : base+gr.Bits] {
						x[gr.StartBit+b] = w // a loop, not copy: no call per group
					}
				}
			}
			var m uint64 // spelled out, not vbpSlotLanes: one call per window, not two
			if wantMin {
				m, _ = scan.VBPSlotCompare(x, blk)
			} else {
				m, _ = scan.VBPSlotCompareGT(x, blk)
			}
			if m &= fw; m == 0 {
				continue
			}
			for p := 0; p < k; p++ {
				blk[p] = word.Blend(m, x[p], blk[p])
			}
			folded = true
			if th, refresh = th.due(); refresh {
				th = bd.offer(th, vbpSlotBest(blk, wantMin))
			}
		}
		if folded {
			m := vbpSlotLanes(blk, temp, wantMin)
			for p := 0; p < k; p++ {
				temp[p] = word.Blend(m, blk[p], temp[p])
			}
		}
	}
	st.SegmentsAggregated += live
	st.WordsTouched += live * uint64(k)
	st.SegmentsBoundPruned += pruned
	return best, any, cnt
}

// vbpSlotLanes returns the slots where x should replace y: x < y for MIN,
// x > y for MAX.
func vbpSlotLanes(x, y []uint64, wantMin bool) uint64 {
	if wantMin {
		m, _ := scan.VBPSlotCompare(x, y)
		return m
	}
	m, _ := scan.VBPSlotCompareGT(x, y)
	return m
}

// VBPFusedFoldExtreme is VBPFold fed by a predicate conjunction.
func VBPFusedFoldExtreme(col *vbp.Column, preds []scan.WindowPred, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	return VBPFold(col, Preds(preds), temp, wantMin, segLo, segHi, st)
}

// VBPFinishExtreme merges one temp segment per worker and reconstructs the
// w finalist slots of each — the only per-value reconstruction in the whole
// algorithm, O(w*k) per temp and negligible per the paper.
func VBPFinishExtreme(temps [][]uint64, k int, wantMin bool) uint64 {
	best := reconstructSlot(temps[0], k, 0)
	for _, temp := range temps {
		for j := 0; j < 64; j++ {
			v := reconstructSlot(temp, k, j)
			if wantMin && v < best || !wantMin && v > best {
				best = v
			}
		}
	}
	return best
}

// reconstructSlot gathers slot j's bits from a VBP-ordered word slice.
func reconstructSlot(ws []uint64, k, j int) uint64 {
	var v uint64
	for p := 0; p < k; p++ {
		v |= (ws[p] >> uint(j) & 1) << uint(k-1-p)
	}
	return v
}

// VBPMedian computes the lower MEDIAN over the filtered tuples
// (Algorithm 3). ok is false when no tuple passes.
func VBPMedian(col *vbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	u := Count(f)
	if u == 0 {
		return 0, false
	}
	return VBPRank(col, f, lowerMedianRank(u))
}

// VBPRank computes the r-th smallest filtered value (1-based) — the
// r-selection generalization the paper notes for Algorithm 3. ok is false
// when fewer than r tuples pass the filter or r == 0.
//
// The value is determined bit by bit, most significant first: at each bit
// position, c candidates have a 1 there; if the candidates with 0 (u-c of
// them) cannot cover rank r, the bit is 1 and the rank re-bases into the
// 1-side, otherwise the bit is 0. Candidate bit vectors V (one word per
// segment) shrink monotonically, and segments whose V reached zero skip
// their POPCNTs entirely.
func VBPRank(col *vbp.Column, f *bitvec.Bitmap, r uint64) (uint64, bool) {
	checkFilter(col.Len(), f)
	u := Count(f)
	if r == 0 || r > u {
		return 0, false
	}
	nseg := col.NumSegments()
	v := slices.Clone(f.Words()) // VBP windows are the bitmap's words
	k := col.K()
	var m uint64
	for p := 0; p < k; p++ {
		c := VBPRankCount(col, v, p, 0, nseg)
		if u-c < r {
			// The r-th smallest lies among candidates with bit p set.
			m |= 1 << uint(k-1-p)
			r -= u - c
			u = c
			VBPRankRefine(col, v, p, true, 0, nseg)
		} else {
			u -= c
			VBPRankRefine(col, v, p, false, 0, nseg)
		}
	}
	return m, true
}

// VBPRankCount counts the candidates in segments [segLo, segHi) whose bit at
// position p (0 = MSB) is set — the per-iteration global counter c the
// paper's multi-threaded variant synchronizes on.
func VBPRankCount(col *vbp.Column, v []uint64, p, segLo, segHi int) uint64 {
	grp := &col.Groups()[locateBit(col, p)]
	b := p - grp.StartBit
	var c uint64
	for seg := segLo; seg < segHi; seg++ {
		if v[seg] == 0 {
			continue
		}
		c += uint64(bits.OnesCount64(v[seg] & grp.Words[seg*grp.Bits+b]))
	}
	return c
}

// VBPRankRefine narrows the candidate vectors of segments [segLo, segHi) to
// those whose bit p matches the decided bit (keepOnes).
func VBPRankRefine(col *vbp.Column, v []uint64, p int, keepOnes bool, segLo, segHi int) {
	grp := &col.Groups()[locateBit(col, p)]
	b := p - grp.StartBit
	for seg := segLo; seg < segHi; seg++ {
		if v[seg] == 0 {
			continue
		}
		w := grp.Words[seg*grp.Bits+b]
		if keepOnes {
			v[seg] &= w
		} else {
			v[seg] &^= w
		}
	}
}

// locateBit maps a global bit position to its word-group index.
func locateBit(col *vbp.Column, p int) int {
	return p / col.Tau()
}

// VBPAvg computes AVG = SUM / COUNT (§III-A). ok is false when no tuple
// passes the filter.
func VBPAvg(col *vbp.Column, f *bitvec.Bitmap) (float64, bool) {
	cnt := Count(f)
	if cnt == 0 {
		return 0, false
	}
	return float64(VBPSum(col, f)) / float64(cnt), true
}

func checkFilter(n int, f *bitvec.Bitmap) {
	if f.Len() != n {
		panic("core: filter length does not match column length")
	}
}
