package core

import "bpagg/internal/scan"

// Fused scan→aggregate execution (single-pass operator fusion): per
// segment, the conjunction of WindowPred filter words is computed and fed
// into the aggregate kernel while still register-resident, so the filter
// bitmap never round-trips through memory. All-match segments — every
// predicate decided "all" by its zone — are answered from the per-segment
// aggregate caches (vbp/hbp SegmentSum, SegmentRangeExact) without
// touching a single packed word.
//
// The kernels stay bit-identical to the two-phase path: the window
// evaluation is the segment body the two-phase scans run (scan.WindowPred
// Decide and Eval), the per-segment aggregate bodies replicate the Range
// kernels, and the cached answers equal what the kernels would compute
// (exact per-segment sums and extremes).

// FusedStats accumulates the work counters of one fused pass. The scan-
// side fields mirror the two-phase scans (per predicate per window); the
// aggregate-side fields mirror the analytic collect helpers of the
// two-phase drivers, minus the cache-served segments — the measurable
// WordsTouched drop.
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

// FusedWindow evaluates the AND-conjunction of preds over window win and
// returns the still-register-resident filter word. allMatch reports that
// every predicate zone-decided "all" (the cache-service opportunity); the
// returned word is then all-ones and the caller masks it to the window's
// valid tuples.
//
// For a single predicate the counters are exactly those of the two-phase
// scan. For conjunctions the fused path may count less: once a predicate
// prunes the window to none — or the running word empties — the remaining
// predicates are skipped entirely, which is the point of fusing.
func FusedWindow(preds []scan.WindowPred, win int, st *FusedStats) (fw uint64, allMatch bool) {
	fw = ^uint64(0)
	allMatch = true
	for _, p := range preds {
		none, all, ok := p.Decide(win)
		if ok {
			if none {
				st.SegmentsPrunedNone++
				return 0, false
			}
			if all {
				st.SegmentsPrunedAll++
				continue
			}
		}
		allMatch = false
		st.SegmentsScanned++
		w, words := p.Eval(win)
		st.WordsCompared += words
		fw &= w
		if fw == 0 {
			return 0, false
		}
	}
	return fw, allMatch
}
