package core

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Filter-word sources. The paper defines every aggregation algorithm
// (Alg. 1–6) over a filter bit vector F, one word per window of the
// aggregated column, and never cares how F was produced. A Filter is F in
// one of two forms, and every kernel is one body per layout that reads its
// windows from either:
//
//   - Preds, the AND-conjunction of WindowPred filter words, evaluated per
//     window and consumed while still register-resident (fused
//     scan→aggregate execution): the bitmap never round-trips through
//     memory, and a window every predicate's zone decides "all" is
//     answered from the per-segment aggregate caches (vbp/hbp SegmentSum,
//     SegmentRangeExact) without touching a packed word;
//   - Bits, a materialized bitmap cut into the column's windows
//     (two-phase execution). It never reports all-match and records no
//     scan-side counter.
//
// The window evaluation is the segment body the two-phase scans run
// (scan.WindowPred Decide and Eval), and the cached answers equal what the
// kernels would compute, so both forms give bit-identical results.

// FusedStats accumulates the work counters of one kernel pass. The scan-
// side fields mirror the two-phase scans (per predicate per window) and
// move only under Preds; the aggregate-side fields count the live windows
// a kernel reads and their packed words (DESIGN.md §8), minus the
// cache-served windows.
type FusedStats struct {
	SegmentsScanned     uint64
	SegmentsPrunedNone  uint64
	SegmentsPrunedAll   uint64
	WordsCompared       uint64
	SegmentsAggregated  uint64
	WordsTouched        uint64
	SegmentsCacheServed uint64
}

// Add merges worker partials; all fields are sums.
func (s FusedStats) Add(o FusedStats) FusedStats {
	s.SegmentsScanned += o.SegmentsScanned
	s.SegmentsPrunedNone += o.SegmentsPrunedNone
	s.SegmentsPrunedAll += o.SegmentsPrunedAll
	s.WordsCompared += o.WordsCompared
	s.SegmentsAggregated += o.SegmentsAggregated
	s.WordsTouched += o.WordsTouched
	s.SegmentsCacheServed += o.SegmentsCacheServed
	return s
}

// Filter is one filter-word source: Preds or Bits.
type Filter struct {
	preds []scan.WindowPred
	bits  *bitvec.Bitmap
}

// Preds is the fused source: the conjunction of preds, evaluated window by
// window. Every predicate's column must share the aggregated column's
// window width.
func Preds(preds []scan.WindowPred) Filter { return Filter{preds: preds} }

// Bits is the two-phase source: bitmap f, as long as the aggregated column.
func Bits(f *bitvec.Bitmap) Filter { return Filter{bits: f} }

// Scans returns how many scans the source runs: one per predicate.
func (f Filter) Scans() int { return len(f.preds) }

// reader is a Filter bound to one column's windows, vps tuples wide over
// n tuples, counting its predicates' work into st: the one place a filter
// becomes window words.
type reader struct {
	f      Filter
	vps, n int
	st     *FusedStats
	words  []uint64 // a bitmap's words, when they are its windows
	lanes  [posPopBlock]uint64
	// allMatch reports that every predicate zone-decided "all" on the
	// last window read (the cache-service opportunity): its word is then
	// all-ones over the window's valid tuples. allLanes is the same for
	// the lanes of the last block.
	allMatch bool
	allLanes uint64
}

func (f Filter) reader(vps, n int, st *FusedStats) reader {
	r := reader{f: f, vps: vps, n: n, st: st}
	if f.bits != nil && vps == 64 {
		r.words = f.bits.Words()
	}
	return r
}

// window returns the filter word of window seg, masked to its valid
// tuples. An aligned bitmap's word is read inline; the other forms take
// one call.
func (r *reader) window(seg int) uint64 {
	if r.words != nil {
		return r.words[seg]
	}
	return r.cut(seg)
}

// block returns the words of the m ≤ posPopBlock windows from seg on: an
// aligned bitmap's in place, which the caller must not write; any other
// form's in lanes, whose all-match lanes (allLanes) the caller may clear.
func (r *reader) block(seg, m int) []uint64 {
	if r.words != nil {
		return r.words[seg : seg+m]
	}
	return r.fill(seg, m)
}

func (r *reader) fill(seg, m int) []uint64 {
	r.allLanes = 0
	for i := range r.lanes[:m] {
		r.lanes[i] = r.cut(seg + i)
		if r.allMatch {
			r.allLanes |= 1 << uint(i)
		}
	}
	return r.lanes[:m]
}

// cut is window for a bitmap of unaligned windows or a predicate
// conjunction. Bits past a bitmap's length read as zero. The conjunction
// ANDs its predicates' words; for a single predicate the counters are
// exactly those of the two-phase scan, and for conjunctions the fused path
// may count less: once a predicate prunes the window to none — or the
// running word empties — the remaining predicates are skipped entirely,
// which is the point of fusing.
func (r *reader) cut(seg int) uint64 {
	if r.f.bits != nil {
		return r.f.bits.Extract(seg*r.vps, r.vps)
	}
	fw, st := ^uint64(0), r.st
	r.allMatch = true
	for _, p := range r.f.preds {
		none, all, ok := p.Decide(seg)
		if ok {
			if none {
				st.SegmentsPrunedNone++
				r.allMatch = false
				return 0
			}
			if all {
				st.SegmentsPrunedAll++
				continue
			}
		}
		r.allMatch = false
		st.SegmentsScanned++
		w, words := p.Eval(seg)
		st.WordsCompared += words
		if fw &= w; fw == 0 {
			return 0
		}
	}
	return fw & word.LowMask(min(r.vps, r.n-seg*r.vps))
}

// Select counts the tuples src selects in windows [segLo, segHi) of a
// column of n tuples in vps-tuple windows — COUNT, which touches no packed
// word — and, when out is non-nil, appends each live window to that
// one-group list (see Runs): the rank candidates of Algorithm 3 lines 4-5
// and Algorithm 6 lines 3-4, in the run-list form every rank descent
// reads (rank.go). Neither needs the layout.
func Select(src Filter, vps, n int, out *SegEntries, segLo, segHi int, st *FusedStats) uint64 {
	var oc word.OnesCounter
	r := src.reader(vps, n, st)
	for seg := segLo; seg < segHi; seg++ {
		fw := r.window(seg)
		if out != nil && fw != 0 {
			out.Segs = append(out.Segs, int32(seg))
			out.W = append(out.W, fw)
		}
		oc.Feed(fw)
	}
	return oc.Total()
}

// VBPFusedCount counts the tuples preds selects over segments
// [segLo, segHi) of a VBP column.
func VBPFusedCount(col *vbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) uint64 {
	return Select(Preds(preds), vbp.SegBits, col.Len(), nil, segLo, segHi, st)
}

// HBPFusedCount counts the tuples preds selects over segments
// [segLo, segHi) of an HBP column.
func HBPFusedCount(col *hbp.Column, preds []scan.WindowPred, segLo, segHi int, st *FusedStats) uint64 {
	return Select(Preds(preds), col.ValuesPerSegment(), col.Len(), nil, segLo, segHi, st)
}
