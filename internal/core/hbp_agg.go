package core

import (
	"math/bits"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/word"
)

// HBPSum computes SUM over the filtered tuples of an HBP column
// (Algorithm 4); the uint64 contract is VBPSum's.
func HBPSum(col *hbp.Column, f *bitvec.Bitmap) uint64 {
	checkFilter(col.Len(), f)
	_, sum, _ := HBPSumCount(col, Bits(f), 0, col.NumSegments(), &FusedStats{})
	return sum
}

// HBPSumCount computes SUM and COUNT of the tuples src selects over
// segments [segLo, segHi). For each sub-segment the filter bits move onto
// the delimiter lane (GET-VALUE-FILTER), spread into a value mask that
// wipes non-qualifying slots, and each word-group's masked word is folded
// by the Gilles–Miller IN-WORD-SUM; sub-segments whose value filter is
// empty are skipped, the early-out that makes selective filters cheap.
// Per-group partials carry in 128 bits (a segment's part of a group is at
// most 64 fields of τ ≤ 31 bits and cannot wrap), and one weighted
// shift-add per bit-group combines them at the end; hi is nonzero only on
// a column where SumOverflowPossible holds. All-match windows are served
// from the per-segment sum cache when its entries are exact (cacheExact).
func HBPSumCount(col *hbp.Column, src Filter, segLo, segHi int, st *FusedStats) (hi, lo, cnt uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	vps := col.ValuesPerSegment()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)
	n := col.Len()
	cacheOK := cacheExact(col.K(), n)

	his, los := make([]uint64, b), make([]uint64, b)
	flush, fw2, fin, keep, mul := summer.Consts()
	peelV, peelF := summer.PeelMasks()
	var masks [word.MaxTau + 1]uint64
	allActive := uint64(1)<<uint(subs) - 1
	fast := summer.Fast()
	r := src.reader(vps, n, st)
	var live, liveSubs uint64
	for seg := segLo; seg < segHi; seg++ {
		fw := r.window(seg)
		if fw == 0 {
			continue
		}
		if r.allMatch && cacheOK {
			if zs, ok := col.SegmentSum(seg); ok {
				hi, lo = add128(hi, lo, zs)
				cnt += uint64(col.SegmentValues(seg))
				st.SegmentsCacheServed++
				continue
			}
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
		live++
		liveSubs += uint64(bits.OnesCount64(active))
		base := seg * subs
		switch {
		case !fast:
			for g := 0; g < b; g++ {
				run := gws[g][base : base+subs]
				var part uint64
				for a := active; a != 0; a &= a - 1 {
					t := bits.TrailingZeros64(a)
					part += summer.Sum(run[t] & masks[t])
				}
				his[g], los[g] = add128(his[g], los[g], part)
			}
		case active == allActive:
			// Straight-line Gilles–Miller fold with hoisted constants
			// over one contiguous word run per group: the dense case,
			// and the loop that dominates SUM.
			for g := 0; g < b; g++ {
				var part uint64
				for t, w := range gws[g][base : base+subs] {
					w &= masks[t]
					x := (w &^ peelF) << flush
					x += x >> fw2
					x &= keep
					part += (x*mul)>>fin + w&peelV
				}
				his[g], los[g] = add128(his[g], los[g], part)
			}
		default:
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
				his[g], los[g] = add128(his[g], los[g], part)
			}
		}
	}
	for g := 0; g < b; g++ {
		hi, lo = add128Shifted(hi, lo, his[g], los[g], uint((b-1-g)*tau))
	}
	st.SegmentsAggregated += live
	st.WordsTouched += liveSubs * uint64(b)
	return hi, lo, cnt
}

// HBPFusedSumCount is HBPSumCount fed by a predicate conjunction, on a
// column where the sum cannot wrap.
func HBPFusedSumCount(col *hbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) (sum, cnt uint64) {
	_, sum, cnt = HBPSumCount(col, Preds(preds), segLo, segHi, st)
	return sum, cnt
}

// groupSlices gathers the per-group word slices once so inner loops avoid
// repeated method dispatch.
func groupSlices(col *hbp.Column) [][]uint64 {
	gws := make([][]uint64, col.NumGroups())
	for g := range gws {
		gws[g] = col.GroupWords(g)
	}
	return gws
}

// HBPMin computes MIN over the filtered tuples (Algorithm 5): a running
// slot-wise minimum sub-segment folded via SUB-SLOTMIN, whose delimiter-lane
// less-than comes from the same Lamport comparison the scans use. Only the
// w/(tau+1) finalist slots are reconstructed at the end. ok is false when
// no tuple passes the filter.
func HBPMin(col *hbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	return hbpExtreme(col, f, true)
}

// HBPMax computes MAX over the filtered tuples (the SUB-SLOTMAX variant of
// Algorithm 5).
func HBPMax(col *hbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	return hbpExtreme(col, f, false)
}

func hbpExtreme(col *hbp.Column, f *bitvec.Bitmap, wantMin bool) (uint64, bool) {
	checkFilter(col.Len(), f)
	if !f.Any() {
		return 0, false
	}
	temp := NewHBPExtremeTemp(col, wantMin)
	HBPFold(col, Bits(f), temp, wantMin, 0, col.NumSegments(), &FusedStats{})
	return HBPFinishExtreme(col, [][]uint64{temp}, wantMin), true
}

// NewHBPExtremeTemp allocates the running slot-wise extreme sub-segment
// SS_temp, initialized to the identity (every slot 2^tau-1 per group for
// MIN, zero for MAX).
func NewHBPExtremeTemp(col *hbp.Column, wantMin bool) []uint64 {
	temp := make([]uint64, col.NumGroups())
	if wantMin {
		for g := range temp {
			temp[g] = col.ValueMask()
		}
	}
	return temp
}

// HBPFold folds the sub-segments of the tuples src selects in segments
// [segLo, segHi) into temp via SUB-SLOTMIN (or SUB-SLOTMAX), one prune
// block at a time, skipping the windows whose zone cannot beat their
// block's threshold; all-match windows are served from the exact zone
// extremes into the scalar running best, and cnt is > 0 iff anything was
// selected, as in VBPFold.
func HBPFold(col *hbp.Column, src Filter, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	vps := col.ValuesPerSegment()
	delim := col.DelimMask()
	var xs, bs [64]uint64
	x, blk := xs[:b], bs[:b]
	id := uint64(0) // the fold identity of every group word
	if wantMin {
		id = col.ValueMask()
	}
	var mds [word.MaxTau + 1]uint64
	r := src.reader(vps, col.Len(), st)
	var live, liveSubs, pruned uint64
	zMin, zMax := col.Zones() // sound bounds: ZoneRange's
	bd := newBound(zMin, zMax, wantMin)
	var refresh bool
	for seg := segLo; seg < segHi; {
		end := min(segHi, (seg/PruneBlock+1)*PruneBlock)
		for g := range blk {
			blk[g] = id
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
			var active uint64
			for t := 0; t < subs; t++ {
				if mds[t] = col.SubSegmentDelims(fw, t); mds[t] != 0 {
					active |= 1 << uint(t)
				}
			}
			live++
			liveSubs += uint64(bits.OnesCount64(active))
			base := seg * subs
			improved := false
			for ; active != 0; active &= active - 1 {
				t := bits.TrailingZeros64(active)
				for g := 0; g < b; g++ {
					x[g] = col.GroupWords(g)[base+t]
				}
				sel := hbpSlotLanes(x, blk, delim, wantMin) & mds[t]
				if sel == 0 {
					continue
				}
				m := word.SpreadDelims(sel, tau)
				for g := 0; g < b; g++ {
					blk[g] = word.Blend(m, x[g], blk[g])
				}
				improved = true
			}
			if !improved {
				continue
			}
			folded = true
			if th, refresh = th.due(); refresh {
				th = bd.offer(th, hbpSlotBest(blk, tau, b, col.FieldsPerWord(), wantMin))
			}
		}
		if folded {
			m := word.SpreadDelims(hbpSlotLanes(blk, temp, delim, wantMin), tau)
			for g := 0; g < b; g++ {
				temp[g] = word.Blend(m, blk[g], temp[g])
			}
		}
	}
	st.SegmentsAggregated += live
	st.WordsTouched += liveSubs * uint64(b)
	st.SegmentsBoundPruned += pruned
	return best, any, cnt
}

// HBPFusedFoldExtreme is HBPFold fed by a predicate conjunction.
func HBPFusedFoldExtreme(col *hbp.Column, preds []scan.WindowPred, temp []uint64, wantMin bool, segLo, segHi int, st *FusedStats) (best uint64, any bool, cnt uint64) {
	return HBPFold(col, Preds(preds), temp, wantMin, segLo, segHi, st)
}

// HBPFinishExtreme merges one temp sub-segment per worker, reconstructing
// the w/(tau+1) finalist slots of each.
func HBPFinishExtreme(col *hbp.Column, temps [][]uint64, wantMin bool) uint64 {
	tau, b, c := col.Tau(), col.NumGroups(), col.FieldsPerWord()
	best := reconstructHBPSlot(temps[0], tau, b, 0)
	for _, temp := range temps {
		for s := 0; s < c; s++ {
			v := reconstructHBPSlot(temp, tau, b, s)
			if wantMin && v < best || !wantMin && v > best {
				best = v
			}
		}
	}
	return best
}

// hbpSlotLanes returns delimiter lanes where x should replace y: x < y
// slot-wise for MIN, x > y for MAX, staged across bit-groups most
// significant first.
func hbpSlotLanes(x, y []uint64, delim uint64, wantMin bool) uint64 {
	eq := delim
	var sel uint64
	for g := range x {
		var lg uint64
		if wantMin {
			lg = word.LTDelims(x[g], y[g], delim)
		} else {
			lg = word.GTDelims(x[g], y[g], delim)
		}
		sel |= eq & lg
		eq &= word.EQDelims(x[g], y[g], delim)
		if eq == 0 {
			break
		}
	}
	return sel
}

// reconstructHBPSlot reassembles slot s from per-group words.
func reconstructHBPSlot(ws []uint64, tau, b, s int) uint64 {
	var v uint64
	for g := 0; g < b; g++ {
		v = v<<uint(tau) | word.Field(ws[g], tau, s)
	}
	return v
}

// HBPMedian computes the lower MEDIAN over the filtered tuples
// (Algorithm 6). ok is false when no tuple passes.
func HBPMedian(col *hbp.Column, f *bitvec.Bitmap) (uint64, bool) {
	u := Count(f)
	if u == 0 {
		return 0, false
	}
	return HBPRank(col, f, lowerMedianRank(u))
}

// MaxHistBits bounds the histogram used by the HBP r-selection: 2^16
// 8-byte bins (512 KiB) is the largest table that still behaves like the
// paper's cache-resident histogram. Bit-groups wider than this descend in
// sub-chunks — bit-identical to Algorithm 6 when tau <= MaxHistBits, and a
// graceful multi-round descent otherwise (the paper instead constrains tau
// at storage-design time so that the histogram fits in cache).
const MaxHistBits = 16

// HBPChunks splits a tau-bit group into MSB-first descent chunks of at most
// MaxHistBits bits. Each chunk is (shift, width): the chunk covers field
// bits [shift, shift+width).
func HBPChunks(tau int) [][2]int {
	return hbpChunksWidth(tau, MaxHistBits)
}

func hbpChunksWidth(tau, maxBits int) [][2]int {
	var out [][2]int
	hi := tau
	for hi > 0 {
		w := hi
		if w > maxBits {
			w = maxBits
		}
		out = append(out, [2]int{hi - w, w})
		hi -= w
	}
	return out
}

// HBPRankChunks picks the descent chunking for a rank query over u
// candidates. The chunk width is a free policy choice — any MSB-first
// chunking determines the same value — so a wide bit-group only earns its
// full 2^MaxHistBits-bin histogram when the candidate population can
// populate it: a histogram over u candidates has at most u non-empty
// bins, and allocating (and re-zeroing, round after round) bins the data
// cannot reach costs far more than the extra scan rounds a narrower
// descent takes over a small candidate set. The width depends only on
// (tau, u), keeping RadixRounds identical across thread counts and the
// narrow/wide kernels. Returns the chunks and the histogram width to
// allocate.
func HBPRankChunks(tau int, u uint64) ([][2]int, int) {
	hb := tau
	if hb > MaxHistBits {
		hb = MaxHistBits
	}
	if need := bits.Len64(u) + 2; need < hb {
		hb = need
	}
	return hbpChunksWidth(tau, hb), hb
}

// HBPRank computes the r-th smallest filtered value (1-based) — the
// r-selection generalization of Algorithm 6. The value is determined
// bit-group by bit-group: a cumulative histogram over the possible group
// values locates the bin containing rank r, the rank re-bases within the
// bin, and the candidate set narrows to tuples equal to the bin in this
// group via BIT-PARALLEL-EQUAL. ok is false when fewer than r tuples pass.
func HBPRank(col *hbp.Column, f *bitvec.Bitmap, r uint64) (uint64, bool) {
	checkFilter(col.Len(), f)
	u := Count(f)
	if r == 0 || r > u {
		return 0, false
	}
	nseg := col.NumSegments()
	v, vps := make([]uint64, nseg), col.ValuesPerSegment()
	for seg := range v {
		v[seg] = f.Extract(seg*vps, vps)
	}
	b := col.NumGroups()
	tau := col.Tau()
	chunks, histBits := HBPRankChunks(tau, u)
	hist := make([]uint64, 1<<uint(histBits))
	var m uint64
	for g := 0; g < b; g++ {
		for ci, ch := range chunks {
			shift, width := ch[0], ch[1]
			hw := hist[:1<<uint(width)]
			for i := range hw {
				hw[i] = 0
			}
			HBPHistogramChunk(col, v, g, shift, width, 0, nseg, hw)
			// Locate the bin containing rank r in the cumulative histogram
			// (Algorithm 6 lines 7-9; rank re-bases by the cumulative
			// count below the bin, per the paper's worked example).
			var cum uint64
			bin := 0
			for i, h := range hw {
				if cum+h >= r {
					bin = i
					break
				}
				cum += h
			}
			r -= cum
			m = m<<uint(width) | uint64(bin)

			if g == b-1 && ci == len(chunks)-1 {
				break
			}
			HBPRankRefineChunk(col, v, g, shift, width, uint64(bin), 0, nseg)
		}
	}
	return m, true
}

// HBPHistogramChunk accumulates the histogram of field bits
// [shift, shift+width) of the candidates' group-g values in segments
// [segLo, segHi) into hist (BUILD-HISTOGRAM of Algorithm 6; with
// shift == 0 and width == tau it covers the whole bit-group). Candidate
// slots are walked by peeling delimiter bits; empty segments and
// sub-segments are skipped.
func HBPHistogramChunk(col *hbp.Column, v []uint64, g, shift, width, segLo, segHi int, hist []uint64) {
	gw, mask := col.GroupWords(g), word.LowMask(width)
	for seg := segLo; seg < segHi; seg++ {
		if v[seg] != 0 {
			hbpHistWindow(col, gw, seg, v[seg], shift, mask, hist)
		}
	}
}

// HBPRankRefineChunk narrows the candidate vectors of segments
// [segLo, segHi) to tuples whose group-g field bits [shift, shift+width)
// equal bin (Algorithm 6 lines 10-11).
func HBPRankRefineChunk(col *hbp.Column, v []uint64, g, shift, width int, bin uint64, segLo, segHi int) {
	c, fWidth := col.FieldsPerWord(), col.FieldWidth()
	laneMask := word.Repeat(word.LowMask(width)<<uint(shift), fWidth, c)
	binPacked := word.Repeat(bin<<uint(shift), fWidth, c)
	gw := col.GroupWords(g)
	for seg := segLo; seg < segHi; seg++ {
		if v[seg] != 0 {
			v[seg] = hbpRefineWindow(col, gw, seg, v[seg], laneMask, binPacked)
		}
	}
}

// HBPAvg computes AVG = SUM / COUNT (§III-B). ok is false when no tuple
// passes the filter.
func HBPAvg(col *hbp.Column, f *bitvec.Bitmap) (float64, bool) {
	cnt := Count(f)
	if cnt == 0 {
		return 0, false
	}
	return float64(HBPSum(col, f)) / float64(cnt), true
}
