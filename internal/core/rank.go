package core

import (
	"math/bits"

	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Rank (DESIGN.md §12): MEDIAN/QUANTILE/RANK of every group in one radix
// descent. A grouped candidate list is the partition's run list cut to the
// measure column's windows with its NULL rows dropped — Algorithm 3's V
// with one word per (window, group) instead of one per window; a scalar
// one is a one-group list, Select's live windows. A round reads every live
// entry once: the kernels below add its count (VBP) or histogram (HBP)
// into its group's counters, the driver decides every group's bit or bin
// at one rendezvous, and the refine kernels narrow each entry by its own
// group's decision. slot maps an entry's group id to the counters it feeds
// (nil: the id itself), so the partitions of several shards can share one
// counter set. A one-group list keeps its counter in a register.

func slotOf(slot []int32, id int32) int {
	if slot == nil {
		return int(id)
	}
	return int(slot[id])
}

// HashCountRuns adds each entry's row count into counts[its slot]:
// COUNT(col) per group over a cursor that drops the column's NULL rows, or
// a grouped rank's per-group candidate count.
func HashCountRuns(cur *Cursor[int32], slot []int32, counts []uint64) {
	for cur.Next() {
		_, ids, ws := cur.Window()
		for e, w := range ws {
			counts[slotOf(slot, ids[e])] += uint64(bits.OnesCount64(w))
		}
	}
}

// VBPGroupRankCount adds, for every live entry of runs [lo, hi), how many
// of its candidates have bit p set (0 = MSB) into cnt[its slot] — the
// per-group counter c of Algorithm 3 — and returns the live entries.
func VBPGroupRankCount(col *vbp.Column, c *SegEntries, slot []int32, p, lo, hi int, cnt []uint64) (live uint64) {
	grp := &col.Groups()[locateBit(col, p)]
	b := p - grp.StartBit
	if c.ID == nil {
		var n uint64
		for r := lo; r < hi; r++ {
			if w := c.W[r]; w != 0 {
				live++
				n += uint64(bits.OnesCount64(w & grp.Words[int(c.Segs[r])*grp.Bits+b]))
			}
		}
		cnt[slotOf(slot, 0)] += n
		return live
	}
	for r := lo; r < hi; r++ {
		x := grp.Words[int(c.Segs[r])*grp.Bits+b]
		for e := c.Start[r]; e < c.Start[r+1]; e++ {
			if w := c.W[e]; w != 0 {
				live++
				cnt[slotOf(slot, c.ID[e])] += uint64(bits.OnesCount64(w & x))
			}
		}
	}
	return live
}

// VBPGroupRankRefine keeps in every entry of runs [lo, hi) the candidates
// whose bit p is the one its group decided: set where ones[its slot],
// clear otherwise.
func VBPGroupRankRefine(col *vbp.Column, c *SegEntries, slot []int32, p int, ones []bool, lo, hi int) {
	grp := &col.Groups()[locateBit(col, p)]
	b := p - grp.StartBit
	if c.ID == nil {
		keep := ones[slotOf(slot, 0)]
		for r := lo; r < hi; r++ {
			if w := c.W[r]; w != 0 {
				x := grp.Words[int(c.Segs[r])*grp.Bits+b]
				if keep {
					c.W[r] = w & x
				} else {
					c.W[r] = w &^ x
				}
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		x := grp.Words[int(c.Segs[r])*grp.Bits+b]
		for e := c.Start[r]; e < c.Start[r+1]; e++ {
			if ones[slotOf(slot, c.ID[e])] {
				c.W[e] &= x
			} else {
				c.W[e] &^= x
			}
		}
	}
}

// HBPGroupRankChunks is HBPRankChunks for a descent over groups groups at
// once: the width that suits the largest group's count u, narrowed until
// the groups' histograms together fit the 2^MaxHistBits bins one
// single-column descent may hold (at least two bins per group). Many
// groups take more, narrower rounds rather than more memory.
func HBPGroupRankChunks(tau int, u uint64, groups int) ([][2]int, int) {
	_, hb := HBPRankChunks(tau, u)
	for hb > 1 && groups<<uint(hb) > 1<<MaxHistBits {
		hb--
	}
	return hbpChunksWidth(tau, hb), hb
}

// HBPGroupHistogram adds, for every live entry of runs [lo, hi), the
// histogram of its candidates' bit-group-g field bits [shift, shift+width)
// into its slot's bins hist[slot<<width:] and returns the live
// sub-segments it read.
func HBPGroupHistogram(col *hbp.Column, c *SegEntries, slot []int32, g, shift, width, lo, hi int, hist []uint64) (subs uint64) {
	gw, mask := col.GroupWords(g), word.LowMask(width)
	if c.ID == nil {
		h := hist[slotOf(slot, 0)<<uint(width):]
		for r := lo; r < hi; r++ {
			if cand := c.W[r]; cand != 0 {
				subs += hbpHistWindow(col, gw, int(c.Segs[r]), cand, shift, mask, h)
			}
		}
		return subs
	}
	for r := lo; r < hi; r++ {
		seg := int(c.Segs[r])
		for e := c.Start[r]; e < c.Start[r+1]; e++ {
			if cand := c.W[e]; cand != 0 {
				subs += hbpHistWindow(col, gw, seg, cand, shift, mask, hist[slotOf(slot, c.ID[e])<<uint(width):])
			}
		}
	}
	return subs
}

// HBPGroupRankRefine narrows every entry of runs [lo, hi) to the
// candidates whose bit-group-g field bits [shift, shift+width) equal its
// group's bin, bins[its slot].
func HBPGroupRankRefine(col *hbp.Column, c *SegEntries, slot []int32, g, shift, width int, bins []uint64, lo, hi int) {
	gw, fWidth, fields := col.GroupWords(g), col.FieldWidth(), col.FieldsPerWord()
	laneMask := word.Repeat(word.LowMask(width)<<uint(shift), fWidth, fields)
	ones := word.Repeat(1, fWidth, fields)
	if c.ID == nil {
		binPacked := bins[slotOf(slot, 0)] << uint(shift) * ones
		for r := lo; r < hi; r++ {
			if cand := c.W[r]; cand != 0 {
				c.W[r] = hbpRefineWindow(col, gw, int(c.Segs[r]), cand, laneMask, binPacked)
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		seg := int(c.Segs[r])
		for e := c.Start[r]; e < c.Start[r+1]; e++ {
			if cand := c.W[e]; cand != 0 {
				c.W[e] = hbpRefineWindow(col, gw, seg, cand, laneMask, bins[slotOf(slot, c.ID[e])]<<uint(shift)*ones)
			}
		}
	}
}

// hbpHistWindow adds the chunk bins (field bits >> shift & mask) of one
// window's candidates cand into hist and returns the live sub-segments.
func hbpHistWindow(col *hbp.Column, gw []uint64, seg int, cand uint64, shift int, mask uint64, hist []uint64) (subs uint64) {
	tau, fWidth, nsub := col.Tau(), col.FieldWidth(), col.SubSegments()
	base := seg * nsub
	for t := 0; t < nsub; t++ {
		md := col.SubSegmentDelims(cand, t)
		if md == 0 {
			continue
		}
		subs++
		w := gw[base+t]
		for ; md != 0; md &= md - 1 {
			hist[word.Field(w, tau, bits.TrailingZeros64(md)/fWidth)>>uint(shift)&mask]++
		}
	}
	return subs
}

// hbpRefineWindow returns the candidates of one window whose chunk lanes
// (laneMask) equal binPacked, via the full-word BIT-PARALLEL-EQUAL
// (Algorithm 6 lines 10-11); masking the lanes to the chunk keeps the
// Lamport equality field-confined.
func hbpRefineWindow(col *hbp.Column, gw []uint64, seg int, cand, laneMask, binPacked uint64) uint64 {
	nsub, delim := col.SubSegments(), col.DelimMask()
	base := seg * nsub
	var nw uint64
	for t := 0; t < nsub; t++ {
		md := col.SubSegmentDelims(cand, t)
		if md == 0 {
			continue
		}
		lanes := word.EQDelims(gw[base+t]&laneMask, binPacked, delim) & md
		nw |= col.ScatterDelims(lanes, t)
	}
	return nw
}
