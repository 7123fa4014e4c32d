package core

import (
	"errors"
	"math/bits"
	"sort"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Single-pass grouped execution (DESIGN.md §12): instead of a G-scan key
// discovery (repeated MIN + equality scans) followed by G independent
// aggregate passes, the partition kernels below visit each
// 64-value segment once, refine the query's filter word into per-group
// selection words for every dictionary code present, and discover the
// keys as a side effect. The VBP kernel descends the column's bit-planes
// as a binary tree — a node is (code prefix, selection word), and plane p
// splits every live node into its 0- and 1-children with two ANDs — so a
// segment costs at most k plane reads no matter how many groups it
// holds. The HBP kernel peels delimiter bits per sub-segment window and
// reconstructs each selected tuple's code from the word-group fields.
// Zone metadata short-circuits both: a segment whose zone range pins a
// single code banks its filter word without touching a packed word, and
// the shared zone prefix skips the top bit-planes of the VBP descent.
//
// The banked aggregate kernels then compute SUM/MIN/MAX for all groups
// in one further pass per measure column, sharing each packed plane read
// across every group live in the segment. SUM accumulates per-bit
// popcount banks (which cannot wrap — they count rows) and combines in
// 128 bits, so grouped sums inherit the exact-overflow contract of the
// checked kernels.

// MaxGroups bounds the distinct keys a direct-tier GroupBank will hold.
// The facade routes only key widths ≤ DirectKeyBits here, which cannot
// exceed it; wider keys go to the hash tier (MaxHashGroups).
const MaxGroups = 1024

// ErrGroupCardinality reports that a partition kernel discovered more
// distinct keys than its budget (MaxGroups for a GroupBank, the limit
// passed to NewHashBank). The facade returns it to the caller as
// bpagg.ErrGroupCardinality; there is no slower path behind it.
var ErrGroupCardinality = errors.New("core: group cardinality exceeds single-pass limit")

// GroupStats accumulates the work counters of one grouped pass.
// Segments and Words follow the analytic conventions of DESIGN.md §8:
// a live, non-cache-served segment charges its packed-word reads
// independent of thread count and of dynamic zone gating.
type GroupStats struct {
	Segments    uint64
	Words       uint64
	CacheServed uint64
}

// Add merges worker partials; all fields are sums.
func (s GroupStats) Add(o GroupStats) GroupStats {
	s.Segments += o.Segments
	s.Words += o.Words
	s.CacheServed += o.CacheServed
	return s
}

// GroupBank holds one worker's per-group selection words over its
// segment range [SegLo, SegHi). Keys stays sorted ascending; Words[i]
// holds key Keys[i]'s selection word for each segment (index seg-SegLo).
// BankWords counts the non-zero (key, segment) words banked — the
// bank's real memory footprint.
type GroupBank struct {
	SegLo, SegHi int
	Keys         []uint64
	Words        [][]uint64
	BankWords    uint64
	direct       []int32 // key → Keys index, -1 when absent; nil when disabled
}

// NewGroupBank returns an empty bank for segments [segLo, segHi).
func NewGroupBank(segLo, segHi int) *GroupBank {
	return &GroupBank{SegLo: segLo, SegHi: segHi}
}

// DirectKeyBits is the widest grouping-key width for which EnableDirect
// indexes keys with a direct-mapped table. 2^10 entries equals MaxGroups,
// so an enabled bank can always hold every possible key.
const DirectKeyBits = 10

// EnableDirect switches slot lookups from binary search to a
// direct-mapped table when the key width allows it. The partition
// kernels pay one slot lookup per distinct code per segment (VBP) or per
// sub-segment word (HBP), so the table is what keeps low-cardinality
// partitions cheap. No-op above DirectKeyBits.
func (b *GroupBank) EnableDirect(k int) {
	if k > DirectKeyBits {
		return
	}
	b.direct = make([]int32, 1<<uint(k))
	for i := range b.direct {
		b.direct[i] = -1
	}
}

// slot returns key's per-segment selection words, discovering the key on
// first use. ok is false when the bank is full (MaxGroups distinct keys).
func (b *GroupBank) slot(key uint64) ([]uint64, bool) {
	if b.direct != nil {
		if i := b.direct[key]; i >= 0 {
			return b.Words[i], true
		}
	}
	i := sort.Search(len(b.Keys), func(j int) bool { return b.Keys[j] >= key })
	if b.direct == nil && i < len(b.Keys) && b.Keys[i] == key {
		return b.Words[i], true
	}
	if len(b.Keys) >= MaxGroups {
		return nil, false
	}
	ws := make([]uint64, b.SegHi-b.SegLo)
	b.Keys = append(b.Keys, 0)
	copy(b.Keys[i+1:], b.Keys[i:])
	b.Keys[i] = key
	b.Words = append(b.Words, nil)
	copy(b.Words[i+1:], b.Words[i:])
	b.Words[i] = ws
	if b.direct != nil {
		b.direct[key] = int32(i)
		for _, k2 := range b.Keys[i+1:] {
			b.direct[k2]++
		}
	}
	return ws, true
}

// Lookup returns key's selection words without discovering it.
func (b *GroupBank) Lookup(key uint64) ([]uint64, bool) {
	i := sort.Search(len(b.Keys), func(j int) bool { return b.Keys[j] >= key })
	if i < len(b.Keys) && b.Keys[i] == key {
		return b.Words[i], true
	}
	return nil, false
}

// vbpPlanes builds the per-bit-position plane lookup: plane p of segment
// seg lives at words[p][seg*stride[p]+off[p]]. Bit position 0 is the MSB,
// matching the column's packing.
type vbpPlanes struct {
	words  [][]uint64
	stride []int
	off    []int
}

func newVBPPlanes(col *vbp.Column) vbpPlanes {
	k, tau := col.K(), col.Tau()
	groups := col.Groups()
	pl := vbpPlanes{
		words:  make([][]uint64, k),
		stride: make([]int, k),
		off:    make([]int, k),
	}
	for p := 0; p < k; p++ {
		gr := &groups[p/tau]
		pl.words[p] = gr.Words
		pl.stride[p] = gr.Bits
		pl.off[p] = p - gr.StartBit
	}
	return pl
}

func (pl *vbpPlanes) word(p, seg int) uint64 {
	return pl.words[p][seg*pl.stride[p]+pl.off[p]]
}

// VBPGroupPartitionRange refines the filter words of segments
// [segLo, segHi) into per-group selection words, banking them (and
// discovering keys) in bank. Each live segment descends the bit-planes
// once: a node (prefix, word) splits into (prefix·0, w AND NOT plane)
// and (prefix·1, w AND plane), so the segment costs at most k plane
// reads total. The zone range prunes the descent: a single-code segment
// banks its filter word directly (cache-served), and the codes' shared
// zone prefix skips the top planes.
func VBPGroupPartitionRange(col *vbp.Column, f *bitvec.Bitmap, bank *GroupBank, segLo, segHi int, st *GroupStats) error {
	k := col.K()
	pl := newVBPPlanes(col)
	var bufP, bufW [2][64]uint64
	curP, nxtP := bufP[0][:], bufP[1][:]
	curW, nxtW := bufW[0][:], bufW[1][:]
	for seg := segLo; seg < segHi; seg++ {
		fw := f.Word(seg) & word.LowMask(col.SegmentValues(seg))
		if fw == 0 {
			continue
		}
		zlo, zhi, zok := col.ZoneRange(seg)
		if zok && zlo == zhi {
			ws, ok := bank.slot(zlo)
			if !ok {
				return ErrGroupCardinality
			}
			ws[seg-bank.SegLo] = fw
			bank.BankWords++
			st.CacheServed++
			continue
		}
		if !zok {
			zlo, zhi = 0, word.LowMask(k)
		}
		shared := bits.LeadingZeros64(zlo^zhi) - (64 - k)
		if shared < 0 {
			shared = 0
		}
		st.Segments++
		st.Words += uint64(k - shared)
		curP[0] = zlo >> uint(k-shared)
		curW[0] = fw
		cn := 1
		for p := shared; p < k; p++ {
			x := pl.word(p, seg)
			nn := 0
			for i := 0; i < cn; i++ {
				w, pre := curW[i], curP[i]<<1
				if w0 := w &^ x; w0 != 0 {
					nxtP[nn], nxtW[nn] = pre, w0
					nn++
				}
				if w1 := w & x; w1 != 0 {
					nxtP[nn], nxtW[nn] = pre|1, w1
					nn++
				}
			}
			curP, nxtP = nxtP, curP
			curW, nxtW = nxtW, curW
			cn = nn
		}
		for i := 0; i < cn; i++ {
			ws, ok := bank.slot(curP[i])
			if !ok {
				return ErrGroupCardinality
			}
			ws[seg-bank.SegLo] = curW[i]
			bank.BankWords++
		}
	}
	return nil
}

// HBPGroupPartitionRange is the HBP analogue: per sub-segment window the
// pending delimiter bits peel off one *distinct code* at a time — the
// lowest pending slot's code is assembled from its word-group fields,
// then one Lamport equality per word-group (the scans' BIT-PARALLEL-EQUAL)
// matches every other selected occurrence of that code in the word at
// once, so the slot lookup and bank update are paid per distinct code
// rather than per tuple. Single-code segments (by zone range) bank the
// whole filter window directly.
func HBPGroupPartitionRange(col *hbp.Column, f *bitvec.Bitmap, bank *GroupBank, segLo, segHi int, st *GroupStats) error {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	fWidth := col.FieldWidth()
	delim := col.DelimMask()
	ones := word.Repeat(1, fWidth, col.FieldsPerWord())
	gws := groupSlices(col)
	for seg := segLo; seg < segHi; seg++ {
		fw := segWindow(f, col, seg)
		if fw == 0 {
			continue
		}
		if zlo, zhi, zok := col.ZoneRange(seg); zok && zlo == zhi {
			ws, ok := bank.slot(zlo)
			if !ok {
				return ErrGroupCardinality
			}
			ws[seg-bank.SegLo] = fw
			bank.BankWords++
			st.CacheServed++
			continue
		}
		st.Segments++
		base := seg * subs
		for t := 0; t < subs; t++ {
			md := col.SubSegmentDelims(fw, t)
			if md == 0 {
				continue
			}
			st.Words += uint64(b)
			for md != 0 {
				s := bits.TrailingZeros64(md) / fWidth
				var key uint64
				eq := md
				for g := 0; g < b; g++ {
					x := gws[g][base+t]
					v := word.Field(x, tau, s)
					key = key<<uint(tau) | v
					eq &= word.EQDelims(x, v*ones, delim)
				}
				ws, ok := bank.slot(key)
				if !ok {
					return ErrGroupCardinality
				}
				w := &ws[seg-bank.SegLo]
				if *w == 0 {
					bank.BankWords++
				}
				*w |= col.ScatterDelims(eq, t)
				md &^= eq
			}
		}
	}
	return nil
}

// VBPGroupSumRange128 accumulates the SUM banks of every group over
// segments [segLo, segHi): bSums (len(sels)*k, bit-major per group)
// collects per-bit popcounts, sharing each plane read across all groups
// live in the segment; his/los (len(sels)) receive exact cache-served
// segment sums for groups covering a whole segment alone. The caller
// combines with VBPGroupSumFinish. Everything accumulates, so worker
// sub-range calls compose.
func VBPGroupSumRange128(col *vbp.Column, sels []*bitvec.Bitmap, segLo, segHi int, bSums, his, los []uint64, st *GroupStats) {
	k := col.K()
	pl := newVBPPlanes(col)
	cacheOK := k <= sumCacheExactK
	liveG := make([]int, 0, 64)
	liveW := make([]uint64, 0, 64)
	// Single-live-group runs (every segment of sorted data, most of
	// clustered data) carry-save through the run accumulator; the sink
	// lands in the same bSums bank the per-word loop fills, so the combine
	// in VBPGroupSumFinish is oblivious to the route. Cache-served
	// segments don't disturb the run — addition order is irrelevant.
	acc := newVBPRunSum(k)
	sink := func(gi, p int, c uint64) { bSums[gi*k+p] += c }
	for seg := segLo; seg < segHi; seg++ {
		liveG, liveW = liveG[:0], liveW[:0]
		for gi, s := range sels {
			if w := s.Word(seg); w != 0 {
				liveG = append(liveG, gi)
				liveW = append(liveW, w)
			}
		}
		if len(liveG) == 0 {
			continue
		}
		if cacheOK && len(liveG) == 1 && liveW[0] == word.LowMask(col.SegmentValues(seg)) {
			if zs, ok := col.SegmentSum(seg); ok {
				gi := liveG[0]
				his[gi], los[gi] = add128(his[gi], los[gi], zs)
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		st.Words += uint64(k)
		if len(liveG) == 1 {
			acc.push(&pl, liveG[0], seg, liveW[0], sink)
			continue
		}
		acc.drain(&pl, sink)
		for p := 0; p < k; p++ {
			x := pl.word(p, seg)
			if x == 0 {
				continue
			}
			for i, gi := range liveG {
				bSums[gi*k+p] += uint64(bits.OnesCount64(x & liveW[i]))
			}
		}
	}
	acc.drain(&pl, sink)
}

// VBPGroupSumFinish folds the per-bit banks into the per-group 128-bit
// totals his/los, after all worker banks have been summed into bSums.
func VBPGroupSumFinish(k int, bSums, his, los []uint64) {
	for gi := range his {
		for p := 0; p < k; p++ {
			his[gi], los[gi] = addShift128(his[gi], los[gi], bSums[gi*k+p], uint(k-1-p))
		}
	}
}

// HBPGroupSumRange128 accumulates per-group per-bit-group 128-bit
// partials over segments [segLo, segHi): ghis/glos have len(sels)*b
// entries (bit-group-major per group). Cache-served whole-segment sums
// for a lone covering group go to his/los (len(sels)) directly. The
// caller combines with HBPGroupSumFinish.
func HBPGroupSumRange128(col *hbp.Column, sels []*bitvec.Bitmap, segLo, segHi int, ghis, glos, his, los []uint64, st *GroupStats) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	summer := word.NewSummer(tau, col.FieldsPerWord())
	gws := groupSlices(col)
	cacheOK := col.K() <= sumCacheExactK
	liveG := make([]int, 0, 64)
	liveW := make([]uint64, 0, 64)
	// Hoisted Gilles–Miller fold constants, as in HBPSumRange: the banked
	// loop runs once per (live group, data word) and the call-free fold is
	// what keeps G live groups at G× the single-sum cost.
	fast := summer.Fast()
	flush, fw2, fin, keep, mul := summer.Consts()
	peelV, peelF := summer.PeelMasks()
	var masks [word.MaxTau + 1]uint64
	for seg := segLo; seg < segHi; seg++ {
		liveG, liveW = liveG[:0], liveW[:0]
		for gi, s := range sels {
			if w := segWindow(s, col, seg); w != 0 {
				liveG = append(liveG, gi)
				liveW = append(liveW, w)
			}
		}
		if len(liveG) == 0 {
			continue
		}
		if cacheOK && len(liveG) == 1 && liveW[0] == word.LowMask(col.SegmentValues(seg)) {
			if zs, ok := col.SegmentSum(seg); ok {
				gi := liveG[0]
				his[gi], los[gi] = add128(his[gi], los[gi], zs)
				st.CacheServed++
				continue
			}
		}
		st.Segments++
		base := seg * subs
		// Complement shortcut: when the live windows cover the whole
		// segment and its exact sum is cached, the last live group's
		// contribution is the cached sum minus the other groups' — one
		// full group pass saved per segment. The skipped group still
		// charges its analytic word count (the DESIGN.md §8 convention:
		// dynamic gating never changes the counters), so stats stay
		// thread-invariant.
		compLast := -1
		var zs uint64
		if cacheOK && len(liveG) > 1 {
			var union uint64
			for _, w := range liveW {
				union |= w
			}
			if union == word.LowMask(col.SegmentValues(seg)) {
				if s, ok := col.SegmentSum(seg); ok {
					zs = s
					compLast = len(liveG) - 1
				}
			}
		}
		var compSum uint64
		for i, gi := range liveG {
			fw := liveW[i]
			if i == compLast {
				st.Words += hbpLiveSubs(col, fw) * uint64(b)
				his[gi], los[gi] = add128(his[gi], los[gi], zs-compSum)
				continue
			}
			var active uint64
			for t := 0; t < subs; t++ {
				m := word.SpreadDelims(col.SubSegmentDelims(fw, t), tau)
				masks[t] = m
				if m != 0 {
					active |= 1 << uint(t)
				}
			}
			st.Words += uint64(bits.OnesCount64(active)) * uint64(b)
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
				if compLast >= 0 {
					compSum += part << uint((b-1-g)*tau)
				}
				ghis[gi*b+g], glos[gi*b+g] = add128(ghis[gi*b+g], glos[gi*b+g], part)
			}
		}
	}
}

// HBPGroupSumFinish combines the weighted bit-group partials into the
// per-group 128-bit totals his/los, after all worker partials have been
// merged into ghis/glos.
func HBPGroupSumFinish(b, tau int, ghis, glos, his, los []uint64) {
	for gi := range his {
		for g := 0; g < b; g++ {
			his[gi], los[gi] = add128Shifted(his[gi], los[gi], ghis[gi*b+g], glos[gi*b+g], uint((b-1-g)*tau))
		}
	}
}

// Add128Pairs adds the 128-bit accumulators (ohis, olos) element-wise
// into (his, los) — the worker-merge primitive for the grouped drivers.
func Add128Pairs(his, los, ohis, olos []uint64) {
	for i := range his {
		lo, carry := bits.Add64(los[i], olos[i], 0)
		his[i] += ohis[i] + carry
		los[i] = lo
	}
}

// VBPGroupExtremeRange folds MIN (or MAX) candidates for every group
// over segments [segLo, segHi) into bests/anys (len(sels) each). Each
// group's selection word descends the shared plane reads as a scalar
// bit-descent; a group covering a whole segment alone is served from the
// exact zone range, and the segment zone range gates groups that cannot
// improve their running best. Stats follow the analytic convention:
// a live, non-fully-cache-served segment charges k words regardless of
// dynamic gating, so the counters stay thread-invariant.
func VBPGroupExtremeRange(col *vbp.Column, sels []*bitvec.Bitmap, wantMin bool, segLo, segHi int, bests []uint64, anys []bool, st *GroupStats) {
	k := col.K()
	pl := newVBPPlanes(col)
	liveG := make([]int, 0, 64)
	liveW := make([]uint64, 0, 64)
	for seg := segLo; seg < segHi; seg++ {
		liveG, liveW = liveG[:0], liveW[:0]
		for gi, s := range sels {
			if w := s.Word(seg); w != 0 {
				liveG = append(liveG, gi)
				liveW = append(liveW, w)
			}
		}
		if len(liveG) == 0 {
			continue
		}
		zlo, zhi, zok := col.ZoneRange(seg)
		full := word.LowMask(col.SegmentValues(seg))
		served := 0
		if len(liveG) == 1 && liveW[0] == full {
			if lo, hi, ok := col.SegmentRangeExact(seg); ok {
				v := lo
				if !wantMin {
					v = hi
				}
				gi := liveG[0]
				if !anys[gi] || wantMin && v < bests[gi] || !wantMin && v > bests[gi] {
					bests[gi] = v
				}
				anys[gi] = true
				st.CacheServed++
				served = 1
			}
		}
		if served == len(liveG) {
			continue
		}
		st.Segments++
		st.Words += uint64(k)
		for i, gi := range liveG {
			// Zone gate: this segment's values all lie in [zlo, zhi], so a
			// group whose running best already beats the whole range needs
			// no descent (a perf-only cut; the stats above ignore it).
			if zok && anys[gi] {
				if wantMin && zlo >= bests[gi] || !wantMin && zhi <= bests[gi] {
					continue
				}
			}
			m := liveW[i]
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

// HBPGroupExtremeRange is the HBP analogue of VBPGroupExtremeRange:
// selected tuples peel off each group's sub-segment windows and
// reconstruct from the word-group fields, with the same zone serving and
// gating.
func HBPGroupExtremeRange(col *hbp.Column, sels []*bitvec.Bitmap, wantMin bool, segLo, segHi int, bests []uint64, anys []bool, st *GroupStats) {
	tau := col.Tau()
	b := col.NumGroups()
	subs := col.SubSegments()
	fWidth := col.FieldWidth()
	gws := groupSlices(col)
	liveG := make([]int, 0, 64)
	liveW := make([]uint64, 0, 64)
	for seg := segLo; seg < segHi; seg++ {
		liveG, liveW = liveG[:0], liveW[:0]
		for gi, s := range sels {
			if w := segWindow(s, col, seg); w != 0 {
				liveG = append(liveG, gi)
				liveW = append(liveW, w)
			}
		}
		if len(liveG) == 0 {
			continue
		}
		zlo, zhi, zok := col.ZoneRange(seg)
		full := word.LowMask(col.SegmentValues(seg))
		served := 0
		if len(liveG) == 1 && liveW[0] == full {
			if lo, hi, ok := col.SegmentRangeExact(seg); ok {
				v := lo
				if !wantMin {
					v = hi
				}
				gi := liveG[0]
				if !anys[gi] || wantMin && v < bests[gi] || !wantMin && v > bests[gi] {
					bests[gi] = v
				}
				anys[gi] = true
				st.CacheServed++
				served = 1
			}
		}
		if served == len(liveG) {
			continue
		}
		st.Segments++
		base := seg * subs
		for i, gi := range liveG {
			fw := liveW[i]
			st.Words += hbpLiveSubs(col, fw) * uint64(b)
			if zok && anys[gi] {
				if wantMin && zlo >= bests[gi] || !wantMin && zhi <= bests[gi] {
					continue
				}
			}
			best, any := bests[gi], anys[gi]
			for t := 0; t < subs; t++ {
				md := col.SubSegmentDelims(fw, t)
				if md == 0 {
					continue
				}
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
