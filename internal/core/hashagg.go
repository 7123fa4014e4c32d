package core

import (
	"math/bits"

	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Banked aggregates over a grouped partition. The parallel driver hands
// every measure column a Cursor over the partition's one canonical
// SegEntries list — segment-major runs of (group index, selection word),
// identical at any thread count — cut to the measure's windows with its
// NULL rows dropped, and the kernels below aggregate straight off it: the
// run list is the live set of each window, so no kernel scans a per-group
// array to find it (O(G) per segment is what a 10^5-group partition cannot
// afford). Per-group state is two words (the 128-bit accumulator or the
// running extreme), so memory stays O(G + banked words).

// VBPHashSumRuns accumulates each group's 128-bit SUM over the windows
// cur yields of the measure column. A run whose single entry covers
// the whole segment is served from the exact segment-sum cache. For
// k ≤ 57 a segment's per-entry sum fits uint64 (≤ 64 values of 2^k−1 <
// 2^63), so the plane loop accumulates shifted popcounts into a local
// bank and pays one 128-bit add per entry; wider codes take the checked
// 128-bit shift-add per plane. Stats follow the DESIGN.md §8 analytic
// conventions, so the counters are thread-invariant.
func VBPHashSumRuns(col *vbp.Column, cur *Cursor[int32], his, los []uint64, st *GroupStats) {
	k := col.K()
	pl := newVBPPlanes(col)
	cacheOK := k <= SumCacheExactK
	small := k <= 57
	// Single-entry runs (one live group in the segment — the common case
	// at high cardinality, where groups cluster) carry-save through the
	// run accumulator keyed on the entry's group; per-plane counts land as
	// checked shift-adds, exactly what the wide path below does per word.
	// Multi-entry runs drain first and take the per-word loops.
	acc := newVBPRunSum(k)
	sink := func(gi, p int, c uint64) {
		his[gi], los[gi] = addShift128(his[gi], los[gi], c, uint(k-1-p))
	}
	var esum [64]uint64
	for cur.Next() {
		s32, ids, ws := cur.Window()
		seg := int(s32)
		if cacheOK && len(ws) == 1 && ws[0] == word.LowMask(col.SegmentValues(seg)) {
			if zs, ok := col.SegmentSum(seg); ok {
				gi := ids[0]
				his[gi], los[gi] = add128(his[gi], los[gi], zs)
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		st.Words += uint64(k)
		if len(ws) == 1 {
			acc.push(&pl, int(ids[0]), seg, ws[0], sink)
			continue
		}
		acc.drain(&pl, sink)
		if small {
			// Slices of equal length and a masked shift (k ≤ 57) keep the
			// inner loop free of bounds and shift-range checks: it runs
			// once per (plane, live group) of every multi-group segment.
			es := esum[:len(ws)]
			clear(es)
			for p := 0; p < k; p++ {
				x := pl.word(p, seg)
				if x == 0 {
					continue
				}
				s := uint(k-1-p) & 63
				for i, w := range ws {
					es[i] += uint64(bits.OnesCount64(x&w)) << s
				}
			}
			for i, v := range es {
				if v != 0 {
					gi := ids[i]
					his[gi], los[gi] = add128(his[gi], los[gi], v)
				}
			}
			continue
		}
		for p := 0; p < k; p++ {
			x := pl.word(p, seg)
			if x == 0 {
				continue
			}
			s := uint(k - 1 - p)
			for e, w := range ws {
				if c := uint64(bits.OnesCount64(x & w)); c != 0 {
					gi := ids[e]
					his[gi], los[gi] = addShift128(his[gi], los[gi], c, s)
				}
			}
		}
	}
	acc.drain(&pl, sink)
}

// HBPHashSumRuns is the HBP twin of VBPHashSumRuns: per entry the
// selection word moves onto the delimiter lanes, each word-group's masked
// word folds by the hoisted Gilles–Miller IN-WORD-SUM, and the weighted
// bit-group partials combine in 128 bits before one add into the entry's
// group. The per-bit-group partial fits uint64 (≤ 64 values of 2^tau−1),
// and (b−1)·tau < k ≤ 64 keeps the combine shift in range.
func HBPHashSumRuns(col *hbp.Column, cur *Cursor[int32], his, los []uint64, st *GroupStats) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)
	cacheOK := col.K() <= SumCacheExactK
	fast := summer.Fast()
	flush, fw2, fin, keep, mul := summer.Consts()
	peelV, peelF := summer.PeelMasks()
	var masks [word.MaxTau + 1]uint64
	for cur.Next() {
		s32, ids, ws := cur.Window()
		seg := int(s32)
		if cacheOK && len(ws) == 1 && ws[0] == word.LowMask(col.SegmentValues(seg)) {
			if zs, ok := col.SegmentSum(seg); ok {
				gi := ids[0]
				his[gi], los[gi] = add128(his[gi], los[gi], zs)
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		base := seg * subs
		for e, fw := range ws {
			var active uint64
			for t := 0; t < subs; t++ {
				m := word.SpreadDelims(col.SubSegmentDelims(fw, t), tau)
				masks[t] = m
				if m != 0 {
					active |= 1 << uint(t)
				}
			}
			st.Words += uint64(bits.OnesCount64(active)) * uint64(b)
			var ehi, elo uint64
			for g := 0; g < b; g++ {
				run := gws[g][base : base+subs]
				var part uint64
				if fast {
					for a := active; a != 0; a &= a - 1 {
						t := bits.TrailingZeros64(a)
						w := run[t] & masks[t]
						x := (w &^ peelF) << flush
						x += x >> fw2
						x &= keep
						part += (x*mul)>>fin + w&peelV
					}
				} else {
					for a := active; a != 0; a &= a - 1 {
						t := bits.TrailingZeros64(a)
						part += summer.Sum(run[t] & masks[t])
					}
				}
				ehi, elo = addShift128(ehi, elo, part, uint((b-1-g)*tau))
			}
			gi := ids[e]
			nl, carry := bits.Add64(los[gi], elo, 0)
			his[gi] += ehi + carry
			los[gi] = nl
		}
	}
}

// VBPHashExtremeRuns folds MIN (or MAX) candidates over the windows cur
// yields: each entry's selection word descends the planes as a
// scalar bit-descent. A lone whole-segment entry is served from the exact
// zone range, and the segment zone range gates entries that cannot
// improve their group's running best (perf-only: a live segment charges
// its k words whatever the gate decides, so the counters stay
// thread-invariant).
func VBPHashExtremeRuns(col *vbp.Column, cur *Cursor[int32], wantMin bool, bests []uint64, anys []bool, st *GroupStats) {
	k := col.K()
	pl := newVBPPlanes(col)
	for cur.Next() {
		s32, ids, ws := cur.Window()
		seg := int(s32)
		zlo, zhi, zok := col.ZoneRange(seg)
		if len(ws) == 1 && ws[0] == word.LowMask(col.SegmentValues(seg)) {
			if l, h, ok := col.SegmentRangeExact(seg); ok {
				v := l
				if !wantMin {
					v = h
				}
				gi := ids[0]
				if !anys[gi] || wantMin && v < bests[gi] || !wantMin && v > bests[gi] {
					bests[gi] = v
				}
				anys[gi] = true
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		st.Words += uint64(k)
		for e, m := range ws {
			gi := ids[e]
			if zok && anys[gi] {
				if wantMin && zlo >= bests[gi] || !wantMin && zhi <= bests[gi] {
					continue
				}
			}
			var v uint64
			if wantMin {
				for p := 0; p < k; p++ {
					if z := m &^ pl.word(p, seg); z != 0 {
						m = z
					} else {
						v |= 1 << uint(k-1-p)
					}
				}
			} else {
				for p := 0; p < k; p++ {
					if z := m & pl.word(p, seg); z != 0 {
						m = z
						v |= 1 << uint(k-1-p)
					}
				}
			}
			if !anys[gi] || wantMin && v < bests[gi] || !wantMin && v > bests[gi] {
				bests[gi] = v
			}
			anys[gi] = true
		}
	}
}

// HBPHashExtremeRuns is the HBP twin of VBPHashExtremeRuns: selected
// tuples peel off each entry's sub-segment windows and reconstruct from
// the word-group fields.
func HBPHashExtremeRuns(col *hbp.Column, cur *Cursor[int32], wantMin bool, bests []uint64, anys []bool, st *GroupStats) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	fWidth := col.FieldWidth()
	gws := groupSlices(col)
	for cur.Next() {
		s32, ids, ws := cur.Window()
		seg := int(s32)
		zlo, zhi, zok := col.ZoneRange(seg)
		if len(ws) == 1 && ws[0] == word.LowMask(col.SegmentValues(seg)) {
			if l, h, ok := col.SegmentRangeExact(seg); ok {
				v := l
				if !wantMin {
					v = h
				}
				gi := ids[0]
				if !anys[gi] || wantMin && v < bests[gi] || !wantMin && v > bests[gi] {
					bests[gi] = v
				}
				anys[gi] = true
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		base := seg * subs
		for e, fw := range ws {
			gi := ids[e]
			st.Words += hbpLiveSubs(col, fw) * uint64(b)
			if zok && anys[gi] {
				if wantMin && zlo >= bests[gi] || !wantMin && zhi <= bests[gi] {
					continue
				}
			}
			best, any := bests[gi], anys[gi]
			for t := 0; t < subs; t++ {
				md := col.SubSegmentDelims(fw, t)
				for ; md != 0; md &= md - 1 {
					s := bits.TrailingZeros64(md) / fWidth
					var v uint64
					for g := 0; g < b; g++ {
						v = v<<uint(tau) | word.Field(gws[g][base+t], tau, s)
					}
					if !any || wantMin && v < best || !wantMin && v > best {
						best = v
					}
					any = true
				}
			}
			bests[gi], anys[gi] = best, any
		}
	}
}

// hbpLiveSubs counts the sub-segments of window fw holding at least one
// selected tuple: what an HBP kernel reads NumGroups words of.
func hbpLiveSubs(col *hbp.Column, fw uint64) uint64 {
	var n uint64
	for t := 0; t < col.SubSegments(); t++ {
		if col.SubSegmentDelims(fw, t) != 0 {
			n++
		}
	}
	return n
}
