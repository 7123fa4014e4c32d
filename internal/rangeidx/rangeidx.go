// Package rangeidx is a per-column prefix-sum index over the per-segment
// aggregate caches: the promotion of zSum and the exact zone bounds from a
// point-wise cache (the fused path serves all-match segments one at a
// time) into an index that answers aggregates over arbitrary row ranges
// without scanning.
//
// Three layers, all maintained incrementally as segments seal:
//
//   - 128-bit prefix sums of the segment sums: SUM/COUNT/AVG over any run
//     of full segments is one 128-bit subtraction (Zhang et al.'s
//     prefix-sums-over-block-aggregates, PAPERS.md). Prefixes are kept in
//     128 bits so the index is exact at any code width; overflow of the
//     uint64 result surfaces at the API layer, never as a wrapped value.
//   - A sparse table over the segment min/max: MIN/MAX over any run of
//     full segments is two overlapping-power-of-two lookups, O(1) after
//     the O(S log S) table build (one ≤log2(S) column per sealed segment).
//   - Fringe kernels (vbp.Frozen / hbp.Frozen): only the two partial
//     boundary segments of a range touch packed words, under an explicit
//     tuple mask — the register-resident filter-word shape of the fused
//     scan→aggregate pipeline.
//
// Concurrency model: a Builder is mutable and owned by the table's append
// lock. Its arrays are append-only, so a Snapshot — an immutable view
// published through an atomic pointer — shares their backing: later
// appends write only beyond every published snapshot's length (or
// reallocate, leaving old backing intact). The open tail segment's packed
// words are the one thing later appends do mutate in place, so a Snapshot
// carries the tail rows as copied plain values and never reads tail words.
package rangeidx

import (
	"math/bits"

	"bpagg/internal/word"
)

// Fringe aggregates one sealed segment of frozen packed words under a
// dense tuple mask (bit j = tuple j of the segment). Implemented by
// vbp.Frozen and hbp.Frozen.
type Fringe interface {
	// SumMasked returns the 128-bit sum of the masked tuples and the
	// packed words touched.
	SumMasked(seg int, mask uint64) (hi, lo uint64, words int)
	// MinMasked returns the minimum masked tuple; ok false on empty mask.
	MinMasked(seg int, mask uint64) (uint64, bool)
	// MaxMasked returns the maximum masked tuple; ok false on empty mask.
	MaxMasked(seg int, mask uint64) (uint64, bool)
	// SegWords returns the packed words one segment occupies — the cost
	// an extreme fringe charges to FringeWords.
	SegWords() int
}

// Cache vouches for exact per-segment aggregates. ok must be false
// whenever exactness cannot be guaranteed — stale caches (adopted zones,
// resumed appends) or code widths where the uint64 segment sum itself may
// have wrapped; the builder then recomputes the segment from its frozen
// words, so the index is exact regardless of cache state.
type Cache interface {
	SegmentExact(seg int) (sum, min, max uint64, ok bool)
}

// Builder maintains the index layers incrementally as segments seal. All
// methods must run under the owning table's append lock.
type Builder struct {
	segRows int
	sealed  int
	// psum[s] = 128-bit sum of segments [0, s); len sealed+1.
	psumHi, psumLo []uint64
	// minTab/maxTab[j][i] = extreme over sealed segments [i, i+2^j).
	minTab, maxTab [][]uint64
}

// NewBuilder returns an empty builder for segments of segRows tuples.
func NewBuilder(segRows int) *Builder {
	return &Builder{segRows: segRows, psumHi: []uint64{0}, psumLo: []uint64{0}}
}

// SegRows returns the tuples per segment.
func (b *Builder) SegRows() int { return b.segRows }

// Sealed returns the number of sealed segments indexed so far.
func (b *Builder) Sealed() int { return b.sealed }

// Extend seals every segment completed by the first rows tuples of the
// column: exact per-segment aggregates come from cache when it can vouch
// for them and are otherwise recomputed from the frozen words, then extend
// the prefix-sum arrays and sparse tables. Cost is O(log S) per segment
// plus the recompute, amortized one segment per segment appended.
func (b *Builder) Extend(rows int, cache Cache, fr Fringe) {
	full := word.LowMask(b.segRows)
	for s := b.sealed; s < rows/b.segRows; s++ {
		var shi, slo, mn, mx uint64
		var ok bool
		if cache != nil {
			slo, mn, mx, ok = cache.SegmentExact(s)
		}
		if !ok {
			shi, slo, _ = fr.SumMasked(s, full)
			mn, _ = fr.MinMasked(s, full)
			mx, _ = fr.MaxMasked(s, full)
		}
		last := len(b.psumHi) - 1
		nh, nl := word.Add128Pair(b.psumHi[last], b.psumLo[last], shi, slo)
		b.psumHi = append(b.psumHi, nh)
		b.psumLo = append(b.psumLo, nl)
		b.minTab = push(b.minTab, mn, minU64)
		b.maxTab = push(b.maxTab, mx, maxU64)
		b.sealed++
	}
}

func minU64(a, c uint64) uint64 {
	if c < a {
		return c
	}
	return a
}

func maxU64(a, c uint64) uint64 {
	if c > a {
		return c
	}
	return a
}

// push appends one sealed segment's extreme to the sparse table: level 0
// gets the value itself; every level j with 2^j ≤ n gains exactly the one
// new window [n-2^j, n), combined from two level j-1 windows.
func push(tab [][]uint64, v uint64, better func(a, b uint64) uint64) [][]uint64 {
	if len(tab) == 0 {
		tab = append(tab, nil)
	}
	tab[0] = append(tab[0], v)
	n := len(tab[0])
	for j := 1; 1<<uint(j) <= n; j++ {
		if j == len(tab) {
			tab = append(tab, nil)
		}
		i := n - 1<<uint(j)
		tab[j] = append(tab[j], better(tab[j-1][i], tab[j-1][i+1<<uint(j-1)]))
	}
	return tab
}

// Snapshot publishes the index state for the first rows tuples as an
// immutable view. tail holds the copied plain values of the open tail
// segment (rows beyond the last sealed boundary); fr is the frozen word
// view backing fringe reads. Extend must have been called for rows first.
func (b *Builder) Snapshot(rows int, tail []uint64, fr Fringe) *Snapshot {
	sealed := rows / b.segRows
	if sealed > b.sealed {
		sealed = b.sealed
	}
	return &Snapshot{
		segRows: b.segRows,
		rows:    rows,
		sealed:  sealed,
		psumHi:  b.psumHi[: sealed+1 : sealed+1],
		psumLo:  b.psumLo[: sealed+1 : sealed+1],
		minTab:  clipTab(b.minTab, sealed),
		maxTab:  clipTab(b.maxTab, sealed),
		tail:    tail,
		fr:      fr,
	}
}

// clipTab copies the level headers with lengths valid for n sealed
// segments, so a snapshot never observes entries sealed after it.
func clipTab(tab [][]uint64, n int) [][]uint64 {
	out := make([][]uint64, 0, len(tab))
	for j := range tab {
		ln := n - 1<<uint(j) + 1
		if ln <= 0 {
			break
		}
		if ln > len(tab[j]) {
			ln = len(tab[j])
		}
		out = append(out, tab[j][:ln:ln])
	}
	return out
}

// Stats reports what one range lookup cost: full segments answered from
// the prefix arrays / sparse tables, and packed words the two boundary
// fringes touched. Tail rows (served from copied values) count in
// neither.
type Stats struct {
	IndexSegments uint64
	FringeWords   uint64
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.IndexSegments += o.IndexSegments
	s.FringeWords += o.FringeWords
}

// Add is the exported twin of add for callers accumulating across lookups.
func (s *Stats) Add(o Stats) { s.add(o) }

// Snapshot is one epoch's immutable index view: the row high-water mark,
// the sealed prefix arrays and sparse tables, the copied tail values, and
// the frozen fringe kernels. Safe for concurrent use; never mutated.
type Snapshot struct {
	segRows int
	rows    int
	sealed  int
	psumHi  []uint64
	psumLo  []uint64
	minTab  [][]uint64
	maxTab  [][]uint64
	tail    []uint64
	fr      Fringe
}

// Rows returns the snapshot's row high-water mark: rows appended after it
// was published are invisible to every lookup.
func (s *Snapshot) Rows() int { return s.rows }

// SegRows returns the tuples per segment.
func (s *Snapshot) SegRows() int { return s.segRows }

// clip bounds [lo, hi) to the snapshot's visible rows.
func (s *Snapshot) clip(lo, hi int) (int, int) {
	if hi > s.rows {
		hi = s.rows
	}
	if lo > hi {
		lo = hi
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// Sum returns the exact 128-bit sum over rows [lo, hi), clipped to the
// snapshot. Full interior segments come from one prefix difference, the
// two boundary segments from masked fringe kernels, tail rows from the
// copied values.
func (s *Snapshot) Sum(lo, hi int) (sumHi, sumLo uint64, st Stats) {
	lo, hi = s.clip(lo, hi)
	sealedEnd := s.sealed * s.segRows
	for i := maxInt(lo, sealedEnd); i < hi; i++ {
		sumHi, sumLo = word.Add128(sumHi, sumLo, s.tail[i-sealedEnd])
	}
	if lo >= sealedEnd {
		return sumHi, sumLo, st
	}
	end := minInt(hi, sealedEnd)
	segA, offA := lo/s.segRows, lo%s.segRows
	segB, offB := end/s.segRows, end%s.segRows
	if segA == segB {
		// Both bounds inside one segment: a single two-sided fringe.
		h, l, w := s.fr.SumMasked(segA, word.LowMask(offB)&^word.LowMask(offA))
		st.FringeWords += uint64(w)
		sumHi, sumLo = word.Add128Pair(sumHi, sumLo, h, l)
		return sumHi, sumLo, st
	}
	fullA := segA
	if offA != 0 {
		h, l, w := s.fr.SumMasked(segA, word.LowMask(s.segRows)&^word.LowMask(offA))
		st.FringeWords += uint64(w)
		sumHi, sumLo = word.Add128Pair(sumHi, sumLo, h, l)
		fullA++
	}
	if offB != 0 {
		h, l, w := s.fr.SumMasked(segB, word.LowMask(offB))
		st.FringeWords += uint64(w)
		sumHi, sumLo = word.Add128Pair(sumHi, sumLo, h, l)
	}
	if fullA < segB {
		dh, dl := word.Sub128(s.psumHi[segB], s.psumLo[segB], s.psumHi[fullA], s.psumLo[fullA])
		sumHi, sumLo = word.Add128Pair(sumHi, sumLo, dh, dl)
		st.IndexSegments += uint64(segB - fullA)
	}
	return sumHi, sumLo, st
}

// Min returns the minimum over rows [lo, hi), clipped to the snapshot;
// ok is false when the clipped range is empty.
func (s *Snapshot) Min(lo, hi int) (uint64, bool, Stats) {
	return s.extreme(lo, hi, true)
}

// Max is the dual of Min.
func (s *Snapshot) Max(lo, hi int) (uint64, bool, Stats) {
	return s.extreme(lo, hi, false)
}

func (s *Snapshot) extreme(lo, hi int, wantMin bool) (uint64, bool, Stats) {
	var st Stats
	lo, hi = s.clip(lo, hi)
	best, found := uint64(0), false
	take := func(v uint64, ok bool) {
		if !ok {
			return
		}
		if !found || (wantMin && v < best) || (!wantMin && v > best) {
			best = v
		}
		found = true
	}
	sealedEnd := s.sealed * s.segRows
	for i := maxInt(lo, sealedEnd); i < hi; i++ {
		take(s.tail[i-sealedEnd], true)
	}
	if lo >= sealedEnd {
		return best, found, st
	}
	end := minInt(hi, sealedEnd)
	segA, offA := lo/s.segRows, lo%s.segRows
	segB, offB := end/s.segRows, end%s.segRows
	fringe := func(seg int, mask uint64) {
		var v uint64
		var ok bool
		if wantMin {
			v, ok = s.fr.MinMasked(seg, mask)
		} else {
			v, ok = s.fr.MaxMasked(seg, mask)
		}
		if mask != 0 {
			st.FringeWords += uint64(s.fr.SegWords())
		}
		take(v, ok)
	}
	if segA == segB {
		fringe(segA, word.LowMask(offB)&^word.LowMask(offA))
		return best, found, st
	}
	fullA := segA
	if offA != 0 {
		fringe(segA, word.LowMask(s.segRows)&^word.LowMask(offA))
		fullA++
	}
	if offB != 0 {
		fringe(segB, word.LowMask(offB))
	}
	if fullA < segB {
		tab := s.minTab
		better := minU64
		if !wantMin {
			tab, better = s.maxTab, maxU64
		}
		j := bits.Len(uint(segB-fullA)) - 1
		take(better(tab[j][fullA], tab[j][segB-1<<uint(j)]), true)
		st.IndexSegments += uint64(segB - fullA)
	}
	return best, found, st
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
