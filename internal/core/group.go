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

// Single-pass grouped execution (DESIGN.md §12). GROUP BY is one
// pipeline: Partition visits the first grouping column's windows in
// order, splits each filter word into one selection word per code present
// (vbpSplitSeg descends the bit-planes as a binary tree, hbpSplitSeg peels
// delimiter bits per sub-segment; zone metadata short-circuits both) and
// appends (packed key, word) to a segment-major run list. Each further
// grouping column refines that list window by window into key<<k|code, so
// a composite key needs no per-stage bank; the last step maps its keys to
// dense slots through a KeyIndex as it emits. The banked aggregate kernels
// (hashagg.go, grouprank.go) then read the run list through a Cursor in
// the measure column's windows: it is the live (group, word) set of every
// window, so nothing is O(groups × segments).

// ErrGroupCardinality reports that a partition discovered more distinct
// keys than its budget (the limit passed to NewKeyIndex). The facade
// returns it to the caller as bpagg.ErrGroupCardinality; there is no
// slower path behind it.
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

// Runs is a segment-major run list over one column segmentation: run r
// covers window Segs[r] and spans entries [Start[r], Start[r+1]), each
// pairing an id — the packed key while the partition refines, the group
// index once a KeyIndex has mapped it — with the selection word W[e] of
// that id's rows in the window. Runs ascend by window; Start always ends
// with len(ID), so the zero value is not a valid list (NewRuns). A
// one-group list (a scalar rank's candidates, Select's) has nil ID and
// Start instead: run r is entry r alone, of id 0; only the rank kernels
// read it.
type Runs[K int32 | uint64] struct {
	Segs  []int32
	Start []int32
	ID    []K
	W     []uint64
}

// SegEntries is the indexed run list the banked aggregate kernels read.
type SegEntries = Runs[int32]

// NewRuns returns an empty run list with room for runs windows and
// entries entries. Callers size it up front: growing a multi-megabyte
// list by append costs several times its final bytes.
func NewRuns[K int32 | uint64](runs, entries int) *Runs[K] {
	return &Runs[K]{
		Segs:  make([]int32, 0, runs),
		Start: make([]int32, 1, runs+1),
		ID:    make([]K, 0, entries),
		W:     make([]uint64, 0, entries),
	}
}

// NumRuns returns the number of live windows.
func (r *Runs[K]) NumRuns() int { return len(r.Segs) }

// Reset empties the list for reuse as scratch, keeping its capacity; it
// also makes the zero value a valid empty list.
func (r *Runs[K]) Reset() {
	r.Segs, r.Start, r.ID, r.W = r.Segs[:0], append(r.Start[:0], 0), r.ID[:0], r.W[:0]
}

// Append appends list o, whose first window must follow r's last.
func (r *Runs[K]) Append(o *Runs[K]) {
	base := int32(len(r.ID))
	r.Segs = append(r.Segs, o.Segs...)
	for _, st := range o.Start[1:] {
		r.Start = append(r.Start, base+st)
	}
	r.ID = append(r.ID, o.ID...)
	r.W = append(r.W, o.W...)
}

// SortRun puts run r's entries in ascending id order — the canonical
// order that makes a merged list identical at any thread count. Runs hold
// at most 64 entries and mostly arrive sorted, so it is an insertion sort.
func (r *Runs[K]) SortRun(i int) {
	id, w := r.ID[r.Start[i]:r.Start[i+1]], r.W[r.Start[i]:r.Start[i+1]]
	for e := 1; e < len(id); e++ {
		for j := e; j > 0 && id[j-1] > id[j]; j-- {
			id[j-1], id[j] = id[j], id[j-1]
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
}

// Cursor streams a run list in another column's windows. Refinement and
// the banked kernels index windows in one column's segmentation; where two
// columns disagree (HBP's values-per-segment depends on its bit-group
// size) the cursor re-cuts the list one target window at a time, OR-ing
// the rows of an id that reach the window from two source windows, and
// drops the rows of a skip bitmap (a measure's NULLs). Nothing is
// materialized: a window holds at most 64 rows, so at most 64 ids, and
// its entries are assembled in a fixed scratch — in source order, each id
// at its first appearance, so every consumer sees one canonical list.
// Equal window sizes without a skip bitmap yield the source runs
// themselves.
type Cursor[K int32 | uint64] struct {
	src      *Runs[K]
	from, to int // source and target window sizes, in values
	skip     *bitvec.Bitmap
	r        int // the first source run that may still feed a window
	m, hi    int // the next target window; the cursor stops before hi
	seg      int32
	lo, n    int // the window's entries: src's [lo, lo+n), or the scratch's first n when lo < 0
	ids      [64]K
	ws       [64]uint64
}

// NewCursor returns a cursor over src, whose windows hold from values,
// that yields the to-value windows lo ≤ m < hi holding a row not in skip
// (nil skips nothing). Cursors over disjoint [lo, hi) ranges split one
// list between workers without sharing a window.
func NewCursor[K int32 | uint64](src *Runs[K], from, to, lo, hi int, skip *bitvec.Bitmap) Cursor[K] {
	r := sort.Search(len(src.Segs), func(i int) bool { return (int(src.Segs[i])+1)*from > lo*to })
	return Cursor[K]{src: src, from: from, to: to, skip: skip, r: r, m: lo, hi: hi}
}

// Next advances to the next window with a live entry and reports whether
// there is one.
func (c *Cursor[K]) Next() bool {
	s := c.src
	if c.from == c.to && c.skip == nil {
		if c.r == len(s.Segs) || int(s.Segs[c.r]) >= c.hi {
			return false
		}
		c.seg, c.lo, c.n = s.Segs[c.r], int(s.Start[c.r]), int(s.Start[c.r+1]-s.Start[c.r])
		c.r++
		return true
	}
	for c.r < len(s.Segs) {
		base := int(s.Segs[c.r]) * c.from
		c.m = max(c.m, base/c.to)
		if c.m >= c.hi {
			return false
		}
		if c.m*c.to >= base+c.from {
			c.r++ // every target window this run overlaps is done
			continue
		}
		c.m++
		if c.window(c.m - 1) {
			return true
		}
	}
	return false
}

// window assembles target window m from the source runs overlapping it,
// from run c.r on, and reports whether it holds a live entry.
func (c *Cursor[K]) window(m int) bool {
	s := c.src
	n, mask := 0, word.LowMask(c.to)
	for j := c.r; j < len(s.Segs) && int(s.Segs[j])*c.from < (m+1)*c.to; j++ {
		// The source window starts d values before the target's (|d| < 64);
		// ids already gathered from an earlier source window merge.
		d, prev := m*c.to-int(s.Segs[j])*c.from, n
		ids, ws := s.ID[s.Start[j]:s.Start[j+1]], s.W[s.Start[j]:s.Start[j+1]]
		for e, w := range ws {
			if d >= 0 {
				w >>= uint(d) & 63
			} else {
				w <<= uint(-d) & 63
			}
			if w &= mask; w == 0 {
				continue
			}
			i := 0
			for i < prev && c.ids[i] != ids[e] {
				i++
			}
			if i < prev {
				c.ws[i] |= w
				continue
			}
			c.ids[n], c.ws[n] = ids[e], w
			n++
		}
	}
	if c.skip != nil {
		drop, live := c.skip.Extract(m*c.to, c.to), 0
		for i := 0; i < n; i++ {
			if w := c.ws[i] &^ drop; w != 0 {
				c.ids[live], c.ws[live] = c.ids[i], w
				live++
			}
		}
		n = live
	}
	c.seg, c.lo, c.n = int32(m), -1, n
	return n > 0
}

// Window returns the current window and its entries, valid until the next
// call of Next.
func (c *Cursor[K]) Window() (seg int32, ids []K, ws []uint64) {
	if c.lo >= 0 {
		return c.seg, c.src.ID[c.lo : c.lo+c.n], c.src.W[c.lo : c.lo+c.n]
	}
	return c.seg, c.ids[:c.n], c.ws[:c.n]
}

// Count returns how many windows and entries the cursor has yet to yield:
// a dry run on a copy, allocating nothing.
func (c Cursor[K]) Count() (windows, entries int) {
	for c.Next() {
		windows++
		entries += c.n
	}
	return windows, entries
}

// Collect materializes the windows the cursor has yet to yield as a run
// list of exactly their size.
func (c *Cursor[K]) Collect() *Runs[K] {
	out := NewRuns[K](c.Count())
	for c.Next() {
		seg, ids, ws := c.Window()
		out.Segs = append(out.Segs, seg)
		out.ID = append(out.ID, ids...)
		out.W = append(out.W, ws...)
		out.Start = append(out.Start, int32(len(out.ID)))
	}
	return out
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

// splitScratch is the working set of a split: two lists of (code, word)
// pairs — a segment holds at most 64 values, so at most 64 codes. The VBP
// descent ping-pongs between them; a split's result aliases one of them
// and is valid until the next split.
type splitScratch struct {
	p, w [2][64]uint64
}

// vbpSplitSeg splits one segment's selection word w into per-code words,
// returned as parallel (code, word) lists in ascending code order. A node
// of the descent is (code prefix, selection word); plane p splits every
// live node into its 0- and 1-children with two ANDs, so a segment costs
// at most k plane reads no matter how many groups it holds. The zone
// range prunes it: a single-code segment is served without touching a
// packed word, and the codes' shared zone prefix skips the top planes.
func vbpSplitSeg(col *vbp.Column, pl *vbpPlanes, k, seg int, w uint64, sc *splitScratch, st *GroupStats) (codes, words []uint64) {
	curP, nxtP := sc.p[0][:], sc.p[1][:]
	curW, nxtW := sc.w[0][:], sc.w[1][:]
	zlo, zhi, zok := col.ZoneRange(seg)
	if zok && zlo == zhi {
		curP[0], curW[0] = zlo, w
		st.CacheServed++
		return curP[:1], curW[:1]
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
	curW[0] = w
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
	return curP[:cn], curW[:cn]
}

// hbpSplitCtx hoists the per-column constants of hbpSplitSeg out of the
// per-segment loop.
type hbpSplitCtx struct {
	tau, b, subs, fWidth int
	delim, ones          uint64
	gws                  [][]uint64
}

func newHBPSplitCtx(col *hbp.Column) hbpSplitCtx {
	return hbpSplitCtx{
		tau: col.Tau(), b: col.NumGroups(), subs: col.SubSegments(),
		fWidth: col.FieldWidth(), delim: col.DelimMask(),
		ones: word.Repeat(1, col.FieldWidth(), col.FieldsPerWord()),
		gws:  groupSlices(col),
	}
}

// hbpSplitSeg is the HBP twin of vbpSplitSeg: per sub-segment window the
// pending delimiter bits peel one distinct code at a time — the lowest
// pending slot's code is assembled from its word-group fields, then one
// Lamport equality per word-group (the scans' BIT-PARALLEL-EQUAL) matches
// every other selected occurrence of that code in the word at once.
// The same code can surface from several sub-segments of the window, so
// output pairs dedup by linear scan (≤ 64 live codes per segment); they
// come out in peel order, not code order.
func hbpSplitSeg(col *hbp.Column, c *hbpSplitCtx, seg int, fw uint64, sc *splitScratch, st *GroupStats) (codes, words []uint64) {
	outP, outW := &sc.p[0], &sc.w[0]
	if zlo, zhi, zok := col.ZoneRange(seg); zok && zlo == zhi {
		outP[0], outW[0] = zlo, fw
		st.CacheServed++
		return outP[:1], outW[:1]
	}
	st.Segments++
	base := seg * c.subs
	cn := 0
	for t := 0; t < c.subs; t++ {
		md := col.SubSegmentDelims(fw, t)
		if md == 0 {
			continue
		}
		st.Words += uint64(c.b)
		for md != 0 {
			s := bits.TrailingZeros64(md) / c.fWidth
			var key uint64
			eq := md
			for g := 0; g < c.b; g++ {
				x := c.gws[g][base+t]
				v := word.Field(x, c.tau, s)
				key = key<<uint(c.tau) | v
				eq &= word.EQDelims(x, v*c.ones, c.delim)
			}
			w := col.ScatterDelims(eq, t)
			j := 0
			for ; j < cn; j++ {
				if outP[j] == key {
					outW[j] |= w
					break
				}
			}
			if j == cn {
				outP[cn], outW[cn] = key, w
				cn++
			}
			md &^= eq
		}
	}
	return outP[:cn], outW[:cn]
}

// Splitter is one grouping column as the partition sees it: a window
// size, a code width and the split of one window's selection word across
// the codes present. The layout is its only branch.
type Splitter struct {
	v  *vbp.Column
	pl vbpPlanes
	h  *hbp.Column
	hc hbpSplitCtx
}

// NewSplitter wraps a grouping column; exactly one of v and h is non-nil.
func NewSplitter(v *vbp.Column, h *hbp.Column) *Splitter {
	if v != nil {
		return &Splitter{v: v, pl: newVBPPlanes(v)}
	}
	return &Splitter{h: h, hc: newHBPSplitCtx(h)}
}

// k returns the column's code width in bits.
func (s *Splitter) k() int {
	if s.v != nil {
		return s.v.K()
	}
	return s.h.K()
}

// rows returns the column's length in values.
func (s *Splitter) rows() int {
	if s.v != nil {
		return s.v.Len()
	}
	return s.h.Len()
}

// vps returns the column's window size in values.
func (s *Splitter) vps() int {
	if s.v != nil {
		return vbp.SegBits
	}
	return s.h.ValuesPerSegment()
}

func (s *Splitter) split(seg int, w uint64, sc *splitScratch, st *GroupStats) (codes, words []uint64) {
	if s.v != nil {
		return vbpSplitSeg(s.v, &s.pl, s.v.K(), seg, w, sc, st)
	}
	return hbpSplitSeg(s.h, &s.hc, seg, w, sc, st)
}

// NewStepRuns sizes the run list a partition through grouping columns sps
// emits over runs windows of the last one that select at most rows rows:
// each step splits an entry into at most min(2^k, window) codes, and no
// window holds more entries than the rows it selects.
func NewStepRuns[K int32 | uint64](runs, rows int, sps ...*Splitter) *Runs[K] {
	entries := runs
	for _, s := range sps {
		entries = min(entries*min(1<<uint(min(s.k(), 6)), s.vps()), rows)
	}
	return NewRuns[K](min(runs, rows), entries)
}

// PackedKey is Partition's id for every step but the last: the entry
// keeps its packed key for the next column to extend.
func PackedKey(key uint64) (uint64, bool) { return key, true }

// Partition runs one step of the GROUP BY partition over grouping column
// s and appends its runs to out. With src nil it splits the filter words f
// gives for the column's segments [lo, hi), counting the filter's scan
// work into fst; otherwise it refines every window src yields in s's
// segmentation: entry (key, w) becomes one entry (key<<k | code, w ∧
// code's rows) per code present. id maps each emitted key to the entry's
// id — PackedKey, or a KeyIndex's Slot on the last step — and refuses a
// key past the budget. Calls over ascending sub-ranges compose.
func Partition[K int32 | uint64](s *Splitter, f Filter, src *Cursor[uint64], lo, hi int, id func(uint64) (K, bool), out *Runs[K], st *GroupStats, fst *FusedStats) error {
	shift := uint(s.k())
	var sc splitScratch
	var rd reader
	if src == nil {
		rd = f.reader(s.vps(), s.rows(), fst)
	}
	var key0, fw [1]uint64 // the first column's one entry per window: key 0, the filter word
	for r := lo; ; r++ {
		seg, keys, ws := r, key0[:], fw[:]
		switch {
		case src != nil:
			if !src.Next() {
				return nil
			}
			s32, ids, words := src.Window()
			seg, keys, ws = int(s32), ids, words
		case r >= hi:
			return nil
		default:
			fw[0] = rd.window(seg)
		}
		for e, w := range ws {
			if w == 0 {
				continue
			}
			codes, words := s.split(seg, w, &sc, st)
			for _, code := range codes {
				k, ok := id(keys[e]<<shift | code)
				if !ok {
					return ErrGroupCardinality
				}
				out.ID = append(out.ID, k)
			}
			out.W = append(out.W, words...)
		}
		if n := int32(len(out.ID)); n > out.Start[len(out.Segs)] {
			out.Segs = append(out.Segs, int32(seg))
			out.Start = append(out.Start, n)
		}
	}
}
