package bpagg_test

import (
	"errors"
	"math"
	"testing"

	"bpagg"
)

// This file pins the bugs flushed out by the differential oracle
// (TestOracleDifferentialSweep). Before the 128-bit checked SUM kernels
// landed, every test in the overflow family failed: the engine returned
// a silently wrapped uint64 on all paths — two-phase, fused,
// cache-served segments, GROUP BY — for both layouts.

const max64 = ^uint64(0)

// wantOverflow asserts that err is a *bpagg.OverflowError carrying the
// exact 128-bit total (hi, lo).
func wantOverflow(t *testing.T, hi, lo uint64, err error) {
	t.Helper()
	var ov *bpagg.OverflowError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v; want *bpagg.OverflowError", err)
	}
	if ov.Hi != hi || ov.Lo != lo {
		t.Fatalf("overflow reports (hi=%d, lo=%d); want (hi=%d, lo=%d)", ov.Hi, ov.Lo, hi, lo)
	}
}

// wantOverflowPanic runs fn, a call of the plain Query.Sum, and asserts it
// panics with *bpagg.OverflowError carrying the exact 128-bit total (hi,
// lo).
func wantOverflowPanic(t *testing.T, hi, lo uint64, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("no panic; want *bpagg.OverflowError")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panicked with %T %v; want *bpagg.OverflowError", r, r)
		}
		wantOverflow(t, hi, lo, err)
	}()
	fn()
}

// TestRegressionSumOverflowTwoPhase: SUM over values wrapping uint64 via
// the two-phase scan-then-aggregate path must return the exact total as
// *bpagg.OverflowError, not the wrapped value (pre-fix: returned 0 for a
// 2^64 total).
func TestRegressionSumOverflowTwoPhase(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		for _, threads := range []int{1, 8} {
			col := bpagg.FromValues(layout, 64, []uint64{max64, 1})
			sel := col.Scan(bpagg.GreaterEq(0))
			// true sum = 2^64 exactly: hi=1, lo=0
			_, err := col.SumContext(bg, sel, bpagg.Parallel(threads))
			wantOverflow(t, 1, 0, err)
		}
	}
}

// TestRegressionSumOverflowContextError: SUM and AVG report the same
// overflow as an error, through a nil ctx too.
func TestRegressionSumOverflowContextError(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		col := bpagg.FromValues(layout, 64, []uint64{max64, 1})
		sel := col.Scan(bpagg.GreaterEq(0))
		_, err := col.SumContext(nil, sel)
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			t.Fatalf("%s: SumContext err = %v; want *bpagg.OverflowError", layout, err)
		}
		if ov.Hi != 1 || ov.Lo != 0 {
			t.Fatalf("%s: got (hi=%d, lo=%d), want (1, 0)", layout, ov.Hi, ov.Lo)
		}
		if _, _, err := col.AvgContext(nil, sel); !errors.As(err, &ov) {
			t.Fatalf("%s: AvgContext err = %v; want *bpagg.OverflowError", layout, err)
		}
	}
}

// TestRegressionSumOverflowFusedQuery: the fused scan→aggregate path
// (simple comparison, no materialized selection) over a wrapping column.
// 65 max values exercise one full segment plus a partial tail.
func TestRegressionSumOverflowFusedQuery(t *testing.T) {
	vals := make([]uint64, 65)
	for i := range vals {
		vals[i] = max64
	}
	// true sum = 65·(2^64−1) = 65·2^64 − 65: hi=64, lo=2^64−65
	wantHi, wantLo := uint64(64), max64-64
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		tbl := bpagg.NewTable()
		tbl.AddColumn("a", layout, 64)
		tbl.AppendColumnar(map[string][]uint64{"a": vals})
		q := tbl.Query().Where("a", bpagg.GreaterEq(0))
		if !q.Fused("a") {
			t.Fatalf("%s: query unexpectedly not fused", layout)
		}
		wantOverflowPanic(t, wantHi, wantLo, func() { tbl.Query().Where("a", bpagg.GreaterEq(0)).Sum("a") })
		_, _, err := tbl.Query().Where("a", bpagg.GreaterEq(0)).SumCountContext(nil, "a")
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			t.Fatalf("%s: SumCountContext err = %v; want *bpagg.OverflowError", layout, err)
		}
	}
}

// TestRegressionSumOverflowCacheServedSegment: an exactly-full segment
// under an all-match predicate is answered from the per-segment sum
// cache, whose uint64 entry has itself wrapped for k > 58 — the checked
// kernels must recompute instead of trusting it.
func TestRegressionSumOverflowCacheServedSegment(t *testing.T) {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = max64
	}
	// true sum = 64·(2^64−1): hi=63, lo=2^64−64
	wantHi, wantLo := uint64(63), max64-63
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		tbl := bpagg.NewTable()
		tbl.AddColumn("a", layout, 64)
		tbl.AppendColumnar(map[string][]uint64{"a": vals})
		wantOverflowPanic(t, wantHi, wantLo, func() {
			tbl.Query().Where("a", bpagg.LessEq(max64)).Sum("a")
		})
	}
}

// TestRegressionSumOverflowGroupBy: per-group SUM inherits the contract —
// a group whose values wrap returns the group's exact total.
func TestRegressionSumOverflowGroupBy(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		tbl := bpagg.NewTable()
		tbl.AddColumn("a", layout, 64)
		tbl.AddColumn("g", layout, 1)
		tbl.AppendColumnar(map[string][]uint64{
			"a": {max64, 5, max64, 7},
			"g": {1, 0, 1, 0},
		})
		g := must(tbl.Query().GroupByContext(bg, "g"))
		// group 1 sums to 2·(2^64−1) = 2^65−2: hi=1, lo=2^64−2
		_, err := g.SumContext(bg, "a")
		wantOverflow(t, 1, max64-1, err)
	}
}

// TestRegressionSumNearBoundaryExact: columns where overflow is possible
// (so the checked kernels run) but the actual selection fits must return
// the exact uint64 — no false positives, no lost precision.
func TestRegressionSumNearBoundaryExact(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		// n=2, k=64: possible, but max64+0 fits exactly.
		col := bpagg.FromValues(layout, 64, []uint64{max64, 0})
		if got := must(col.SumContext(bg, col.All())); got != max64 {
			t.Fatalf("%s: sum = %d, want %d", layout, got, max64)
		}
		// 2·(2^63−1) = 2^64−2: the largest even near-miss.
		m63 := uint64(1)<<63 - 1
		col = bpagg.FromValues(layout, 63, []uint64{m63, m63, 0})
		if got := must(col.SumContext(bg, col.All())); got != max64-1 {
			t.Fatalf("%s: sum = %d, want %d", layout, got, max64-1)
		}
		if got, ok := must2(col.AvgContext(bg, col.All())); !ok || got != float64(max64-1)/3 {
			t.Fatalf("%s: avg = %v (%v)", layout, got, ok)
		}
	}
}

// TestRegressionRankEdgeCases pins the rank contract the oracle verified:
// rank 0 and rank count+1 are out of range, rank 1 is the minimum, rank
// count the maximum — on both layouts and both query routes.
func TestRegressionRankEdgeCases(t *testing.T) {
	vals := []uint64{5, 1, 4, 1, 9, 2, 6}
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		tbl := bpagg.NewTable()
		tbl.AddColumn("a", layout, 8)
		tbl.AppendColumnar(map[string][]uint64{"a": vals})
		q := func() *bpagg.Query { return tbl.Query().Where("a", bpagg.LessEq(255)) }
		if _, ok := must2(q().RankContext(bg, "a", 0)); ok {
			t.Fatalf("%s: rank 0 reported ok", layout)
		}
		if _, ok := must2(q().RankContext(bg, "a", 8)); ok {
			t.Fatalf("%s: rank count+1 reported ok", layout)
		}
		if v, ok := must2(q().RankContext(bg, "a", 1)); !ok || v != 1 {
			t.Fatalf("%s: rank 1 = %d (%v), want 1", layout, v, ok)
		}
		if v, ok := must2(q().RankContext(bg, "a", 7)); !ok || v != 9 {
			t.Fatalf("%s: rank count = %d (%v), want 9", layout, v, ok)
		}

		col := tbl.Column("a")
		empty := col.Scan(bpagg.Greater(200))
		if _, ok := must2(col.MedianContext(bg, empty)); ok {
			t.Fatalf("%s: median of empty selection reported ok", layout)
		}
		if _, ok := must2(col.RankContext(bg, empty, 1)); ok {
			t.Fatalf("%s: rank over empty selection reported ok", layout)
		}
		if _, ok := must2(col.QuantileContext(bg, empty, 0.5)); ok {
			t.Fatalf("%s: quantile over empty selection reported ok", layout)
		}
	}
}

// TestRegressionEvenCountMedianLower pins MEDIAN to the lower median
// (rank (count+1)/2) for even selections, matching the oracle.
func TestRegressionEvenCountMedianLower(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		col := bpagg.FromValues(layout, 8, []uint64{10, 20, 30, 40})
		if v, ok := must2(col.MedianContext(bg, col.All())); !ok || v != 20 {
			t.Fatalf("%s: median = %d (%v), want lower median 20", layout, v, ok)
		}
		// Quantile 0.5 uses nearest-rank and must agree with MEDIAN.
		if v, ok := must2(col.QuantileContext(bg, col.All(), 0.5)); !ok || v != 20 {
			t.Fatalf("%s: quantile(0.5) = %d (%v), want 20", layout, v, ok)
		}
	}
}

// TestRegressionAvgNoOverflowPrecision: AVG on a checked column with a
// fitting sum reproduces the plain float64(sum)/float64(count) result.
func TestRegressionAvgNoOverflowPrecision(t *testing.T) {
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		col := bpagg.FromValues(layout, 64, []uint64{max64, 0, 0, 0})
		got, ok := must2(col.AvgContext(bg, col.All()))
		want := float64(max64) / 4
		if !ok || math.Abs(got-want) > want*1e-15 {
			t.Fatalf("%s: avg = %v (%v), want %v", layout, got, ok, want)
		}
	}
}
