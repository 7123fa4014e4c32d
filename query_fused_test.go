package bpagg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// Property tests for the fused scan→aggregate path: for any column
// content, layout, predicate, and thread count, a fused query must return
// bit-identical results to the two-phase path (scan to bitmap, then
// aggregate), and for single predicates its scan-side counters must be
// exactly the ones ScanStats reports. Two-phase execution is forced by
// materializing the selection first — Selection() permanently disables
// fusion for a query.

type clauseSpec struct {
	col  string
	pred Predicate
}

func fusedQueryPair(tbl *Table, cls []clauseSpec, threads int) (fused, two *Query) {
	mk := func() *Query {
		q := tbl.Query().WithStats()
		if threads > 1 {
			q.With(Parallel(threads))
		}
		for _, c := range cls {
			q.Where(c.col, c.pred)
		}
		return q
	}
	fused, two = mk(), mk()
	two.Selection()
	return fused, two
}

// checkFusedEquivalence runs every aggregate on fresh fused/two-phase
// query pairs and compares results bit for bit. wantFused asserts the
// planner's routing decision for the aggregate column.
func checkFusedEquivalence(t *testing.T, tbl *Table, cls []clauseSpec, agg string, threads int, wantFused bool) {
	t.Helper()
	if f, _ := fusedQueryPair(tbl, cls, threads); f.Fused(agg) != wantFused {
		t.Fatalf("Fused(%q) = %v, want %v", agg, f.Fused(agg), wantFused)
	}

	f, tw := fusedQueryPair(tbl, cls, threads)
	if got, want := f.CountRows(), tw.CountRows(); got != want {
		t.Errorf("CountRows: fused %d, two-phase %d", got, want)
	}

	f, tw = fusedQueryPair(tbl, cls, threads)
	if got, want := f.Sum(agg), tw.Sum(agg); got != want {
		t.Errorf("Sum: fused %d, two-phase %d", got, want)
	}

	f, tw = fusedQueryPair(tbl, cls, threads)
	gv, gok := f.Min(agg)
	wv, wok := tw.Min(agg)
	if gv != wv || gok != wok {
		t.Errorf("Min: fused (%d,%v), two-phase (%d,%v)", gv, gok, wv, wok)
	}

	f, tw = fusedQueryPair(tbl, cls, threads)
	gv, gok = f.Max(agg)
	wv, wok = tw.Max(agg)
	if gv != wv || gok != wok {
		t.Errorf("Max: fused (%d,%v), two-phase (%d,%v)", gv, gok, wv, wok)
	}

	f, tw = fusedQueryPair(tbl, cls, threads)
	ga, gok := f.Avg(agg)
	wa, wok := tw.Avg(agg)
	if ga != wa || gok != wok {
		t.Errorf("Avg: fused (%v,%v), two-phase (%v,%v)", ga, gok, wa, wok)
	}

	f, tw = fusedQueryPair(tbl, cls, threads)
	gv, gok = f.Median(agg)
	wv, wok = tw.Median(agg)
	if gv != wv || gok != wok {
		t.Errorf("Median: fused (%d,%v), two-phase (%d,%v)", gv, gok, wv, wok)
	}

	for _, r := range []uint64{1, 3, uint64(tbl.Rows()) + 1} {
		f, tw = fusedQueryPair(tbl, cls, threads)
		gv, gok = f.Rank(agg, r)
		wv, wok = tw.Rank(agg, r)
		if gv != wv || gok != wok {
			t.Errorf("Rank(%d): fused (%d,%v), two-phase (%d,%v)", r, gv, gok, wv, wok)
		}
	}

	for _, qq := range []float64{0, 0.3, 0.5, 1} {
		f, tw = fusedQueryPair(tbl, cls, threads)
		gv, gok = f.Quantile(agg, qq)
		wv, wok = tw.Quantile(agg, qq)
		if gv != wv || gok != wok {
			t.Errorf("Quantile(%v): fused (%d,%v), two-phase (%d,%v)", qq, gv, gok, wv, wok)
		}
	}
}

// checkSinglePredScanStats pins the stats contract for single predicates:
// the fused pass reports exactly the scan counters the two-phase scan
// does, and never touches more aggregate words.
func checkSinglePredScanStats(t *testing.T, tbl *Table, cls []clauseSpec, agg string, threads int) {
	t.Helper()
	if len(cls) != 1 {
		t.Fatal("scan-counter exactness holds for single predicates only")
	}
	f, tw := fusedQueryPair(tbl, cls, threads)
	if f.Sum(agg) != tw.Sum(agg) {
		t.Fatal("sum mismatch")
	}
	fs, ts := f.Stats(), tw.Stats()
	if fs.Scans != ts.Scans {
		t.Errorf("Scans: fused %d, two-phase %d", fs.Scans, ts.Scans)
	}
	if fs.SegmentsScanned != ts.SegmentsScanned {
		t.Errorf("SegmentsScanned: fused %d, two-phase %d", fs.SegmentsScanned, ts.SegmentsScanned)
	}
	if fs.SegmentsPrunedNone != ts.SegmentsPrunedNone {
		t.Errorf("SegmentsPrunedNone: fused %d, two-phase %d", fs.SegmentsPrunedNone, ts.SegmentsPrunedNone)
	}
	if fs.SegmentsPrunedAll != ts.SegmentsPrunedAll {
		t.Errorf("SegmentsPrunedAll: fused %d, two-phase %d", fs.SegmentsPrunedAll, ts.SegmentsPrunedAll)
	}
	if fs.WordsCompared != ts.WordsCompared {
		t.Errorf("WordsCompared: fused %d, two-phase %d", fs.WordsCompared, ts.WordsCompared)
	}
	if fs.WordsTouched > ts.WordsTouched {
		t.Errorf("WordsTouched: fused %d > two-phase %d", fs.WordsTouched, ts.WordsTouched)
	}
}

func randVals(rng *rand.Rand, n, k int) []uint64 {
	max := uint64(1)<<uint(k) - 1
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & max
	}
	return out
}

func randPreds(rng *rand.Rand, k int) []Predicate {
	max := uint64(1)<<uint(k) - 1
	pick := func() uint64 { return rng.Uint64() & max }
	a, b := pick(), pick()
	if a > b {
		a, b = b, a
	}
	return []Predicate{
		Equal(pick()), NotEqual(pick()),
		Less(pick()), LessEq(pick()),
		Greater(pick()), GreaterEq(pick()),
		Between(a, b),
		Less(0),         // statically empty: every segment zone-prunes
		LessEq(max),     // statically full: every segment served all-match
		Less(max/2 + 1), // ~50% selective
	}
}

func TestFusedEquivalenceVBP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 7, 10, 17} {
		for _, n := range []int{0, 61, 1003} {
			vals := randVals(rng, n, k)
			tbl := NewTableFromColumns(
				[]string{"x", "y"},
				[]*Column{FromValues(VBP, k, vals), FromValues(VBP, k, randVals(rng, n, k))},
			)
			for _, p := range randPreds(rng, k) {
				for _, threads := range []int{1, 8} {
					cls := []clauseSpec{{"x", p}}
					checkFusedEquivalence(t, tbl, cls, "y", threads, true)
					checkSinglePredScanStats(t, tbl, cls, "y", threads)
				}
			}
		}
	}
}

func TestFusedEquivalenceHBP(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{3, 6, 10} {
		for _, n := range []int{0, 100, 1003} {
			vals := randVals(rng, n, k)
			tbl := NewTableFromColumns(
				[]string{"x", "y"},
				[]*Column{FromValues(HBP, k, vals), FromValues(HBP, k, randVals(rng, n, k))},
			)
			for _, p := range randPreds(rng, k) {
				for _, threads := range []int{1, 8} {
					cls := []clauseSpec{{"x", p}}
					checkFusedEquivalence(t, tbl, cls, "y", threads, true)
					checkSinglePredScanStats(t, tbl, cls, "y", threads)
				}
			}
		}
	}
}

// TestFusedEquivalenceConjunction: AND-conjunctions fuse too; only the
// results are pinned (conjunction early-outs may legitimately compare
// fewer words than two independent scans).
func TestFusedEquivalenceConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, layout := range []Layout{VBP, HBP} {
		k := 9
		if layout == HBP {
			k = 6
		}
		n := 777
		tbl := NewTableFromColumns(
			[]string{"a", "b", "c"},
			[]*Column{
				FromValues(layout, k, randVals(rng, n, k)),
				FromValues(layout, k, randVals(rng, n, k)),
				FromValues(layout, k, randVals(rng, n, k)),
			},
		)
		ps := randPreds(rng, k)
		for i := 0; i+1 < len(ps); i += 2 {
			cls := []clauseSpec{{"a", ps[i]}, {"b", ps[i+1]}}
			for _, threads := range []int{1, 8} {
				checkFusedEquivalence(t, tbl, cls, "c", threads, true)
			}
		}
	}
}

// TestFusedMixedLayoutWindows: fusion across layouts requires the window
// widths to coincide. HBP with 7-bit values packs exactly 64 tuples per
// segment and fuses with VBP's 64-tuple segments; HBP with 6-bit values
// packs 63 and must fall back — with identical results either way.
func TestFusedMixedLayoutWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 500
	tbl := NewTableFromColumns(
		[]string{"v", "h64", "h63"},
		[]*Column{
			FromValues(VBP, 10, randVals(rng, n, 10)),
			FromValues(HBP, 7, randVals(rng, n, 7)),
			FromValues(HBP, 6, randVals(rng, n, 6)),
		},
	)
	if got := tbl.Column("h64").Len(); got != n {
		t.Fatalf("h64 len = %d", got)
	}
	cls := []clauseSpec{{"v", Less(512)}}
	checkFusedEquivalence(t, tbl, cls, "h64", 4, true)
	checkFusedEquivalence(t, tbl, cls, "h63", 4, false)
	// And predicates on both matching-window layouts at once.
	cls = []clauseSpec{{"v", Less(700)}, {"h64", Greater(10)}}
	checkFusedEquivalence(t, tbl, cls, "h64", 4, true)
	checkFusedEquivalence(t, tbl, cls, "v", 4, true)
}

// TestFusedCacheServedVBP pins the aggregate-cache instrumentation on
// sorted data, where a selective range predicate makes most live segments
// all-match: the fused path must answer those from the per-segment caches,
// and the two-phase/fused WordsTouched difference must be exactly k words
// per cache-served segment (the dense kernels charge k per live segment).
func TestFusedCacheServedVBP(t *testing.T) {
	const k, n = 12, 4096
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	tbl := NewTableFromColumns([]string{"x"}, []*Column{FromValues(VBP, k, vals)})
	for _, threads := range []int{1, 8} {
		cls := []clauseSpec{{"x", Less(uint64(n / 2))}}
		f, tw := fusedQueryPair(tbl, cls, threads)
		if f.Sum("x") != tw.Sum("x") {
			t.Fatal("sum mismatch")
		}
		fs, ts := f.Stats(), tw.Stats()
		if fs.SegmentsCacheServed == 0 {
			t.Fatal("sorted selective scan served no segments from the cache")
		}
		if ts.SegmentsCacheServed != 0 {
			t.Fatalf("two-phase path reported cache-served segments: %d", ts.SegmentsCacheServed)
		}
		// The n/2 matching rows are segment-aligned, so every matching
		// segment is all-match and cache-served.
		if want := uint64(n / 2 / 64); fs.SegmentsCacheServed != want {
			t.Errorf("SegmentsCacheServed = %d, want %d", fs.SegmentsCacheServed, want)
		}
		if drop := ts.WordsTouched - fs.WordsTouched; drop != uint64(k)*fs.SegmentsCacheServed {
			t.Errorf("WordsTouched drop = %d, want k*cacheServed = %d",
				drop, uint64(k)*fs.SegmentsCacheServed)
		}
		if fs.SegmentsAggregated+fs.SegmentsCacheServed != ts.SegmentsAggregated {
			t.Errorf("SegmentsAggregated: fused %d + cache %d != two-phase %d",
				fs.SegmentsAggregated, fs.SegmentsCacheServed, ts.SegmentsAggregated)
		}
	}
}

// TestFusedCacheServedHBP: same scenario on HBP — the sub-segment word
// accounting differs, so only direction and result identity are pinned.
func TestFusedCacheServedHBP(t *testing.T) {
	const k, n = 7, 4096
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 128)
	}
	// Sort-cluster the values so zones are tight.
	for i := range vals {
		vals[i] = uint64(i * 128 / n)
	}
	tbl := NewTableFromColumns([]string{"x"}, []*Column{FromValues(HBP, k, vals)})
	for _, threads := range []int{1, 8} {
		cls := []clauseSpec{{"x", Less(64)}}
		f, tw := fusedQueryPair(tbl, cls, threads)
		if f.Sum("x") != tw.Sum("x") {
			t.Fatal("sum mismatch")
		}
		fs, ts := f.Stats(), tw.Stats()
		if fs.SegmentsCacheServed == 0 {
			t.Fatal("sorted selective scan served no segments from the cache")
		}
		if fs.WordsTouched >= ts.WordsTouched {
			t.Errorf("WordsTouched: fused %d, want < two-phase %d", fs.WordsTouched, ts.WordsTouched)
		}
		gm, gok := f.Min("x")
		wm, wok := tw.Min("x")
		if gm != wm || gok != wok {
			t.Errorf("Min: fused (%d,%v), two-phase (%d,%v)", gm, gok, wm, wok)
		}
	}
}

// FuzzFusedEquivalence is the route differential fuzzer: every aggregate
// a statement can carry (COUNT(*), COUNT, SUM with its count, MIN, MAX,
// MEDIAN, QUANTILE) must answer identically on every route, whatever the
// data, width, operator, bit-group count or thread count. Under the
// filter, one statement of them all, each as a single call, and the
// statement on a materialized twin (fused against two-phase); over a
// filter-free row range (the prefix-sum index) against the same range
// under an always-true clause (two-phase on the cut). The operator and
// the group count pick the scan kernel's arm: the lanes it stages, and
// for HBP the single-group Lamport form or the staged eq chain.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 17}, uint8(8), uint8(2), uint8(0), uint64(100), uint64(200), uint8(1), true)
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(0), uint8(1), uint64(0), uint64(1), uint8(4), false)
	f.Add([]byte{255, 254, 7}, uint8(13), uint8(6), uint8(2), uint64(50), uint64(5000), uint8(8), true)
	f.Add([]byte{}, uint8(5), uint8(4), uint8(0), uint64(9), uint64(9), uint8(2), false)
	f.Add([]byte{9, 90, 200, 31, 64, 65}, uint8(11), uint8(3), uint8(1), uint64(700), uint64(900), uint8(3), false)
	f.Add([]byte{9, 90, 200, 31, 64, 65}, uint8(11), uint8(5), uint8(3), uint64(700), uint64(900), uint8(1), false)

	f.Fuzz(func(t *testing.T, data []byte, kRaw, opRaw, groupsRaw uint8, a, b uint64, threadsRaw uint8, useVBP bool) {
		k := int(kRaw)%17 + 1
		// groupsRaw 0 keeps the layout's default bit-group size; 1..3 ask
		// for that many groups.
		var opts []ColumnOption
		if groups := int(groupsRaw) % 4; groups > 0 {
			opts = append(opts, WithGroupBits((k+groups-1)/groups))
		}
		layout := HBP
		if useVBP {
			layout = VBP
		}
		max := uint64(1)<<uint(k) - 1
		vals := make([]uint64, len(data))
		for i, d := range data {
			v := uint64(d)
			if i > 0 {
				v |= uint64(data[i-1]) << 8
			}
			vals[i] = v & max
		}
		a, b = a&max, b&max
		if a > b {
			a, b = b, a
		}
		var pred Predicate
		switch opRaw % 7 {
		case 0:
			pred = Equal(a)
		case 1:
			pred = NotEqual(a)
		case 2:
			pred = Less(b)
		case 3:
			pred = LessEq(a)
		case 4:
			pred = Greater(a)
		case 5:
			pred = GreaterEq(b)
		default:
			pred = Between(a, b)
		}
		threads := int(threadsRaw)%8 + 1
		n := len(vals)
		lo := int(a % uint64(n+1))
		hi := lo + int(b%uint64(n-lo+1))

		ctx := context.Background()
		aggs := []GroupAgg{{Op: "COUNT"}, {Op: "COUNT", Column: "x"}, {Op: "SUM", Column: "x"}, {Op: "MIN", Column: "x"},
			{Op: "MAX", Column: "x"}, {Op: "MEDIAN", Column: "x"}, {Op: "QUANTILE", Column: "x", Quantile: float64(a%101) / 100}}
		tbl := NewTableFromColumns([]string{"x"}, []*Column{FromValues(layout, k, vals, opts...)})
		mk := func() *Query { return tbl.Query().With(Parallel(threads)) }
		stmt := func(q interface {
			AggsContext(context.Context, []GroupAgg) ([]AggResult, error)
		}) string {
			row, err := q.AggsContext(ctx, aggs)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(row)
		}
		singles := func(q *Query) string {
			var row [7]AggResult
			var err [7]error
			row[0].Value, err[0] = q.CountRowsContext(ctx)
			row[1].Value, err[1] = q.CountContext(ctx, "x")
			row[2].Value, row[2].Count, err[2] = q.SumCountContext(ctx, "x")
			row[0].OK, row[1].OK, row[2].OK = true, true, true
			row[3].Value, row[3].OK, err[3] = q.MinContext(ctx, "x")
			row[4].Value, row[4].OK, err[4] = q.MaxContext(ctx, "x")
			row[5].Value, row[5].OK, err[5] = q.MedianContext(ctx, "x")
			row[6].Value, row[6].OK, err[6] = q.QuantileContext(ctx, "x", aggs[6].Quantile)
			for _, e := range err {
				if e != nil {
					t.Fatal(e)
				}
			}
			return fmt.Sprint(row[:])
		}

		fused := stmt(mk().Where("x", pred))
		twin := mk().Where("x", pred)
		twin.Selection()
		if got, want := singles(mk().Where("x", pred)), stmt(twin); fused != want || got != want {
			t.Fatalf("statement %s, single calls %s, two-phase %s", fused, got, want)
		}
		index, cut := stmt(mk().Range(lo, hi)), stmt(mk().Where("x", LessEq(max)).Range(lo, hi))
		if index != cut {
			t.Fatalf("range [%d, %d): index %s, two-phase %s", lo, hi, index, cut)
		}
	})
}
