package bpagg

import (
	"context"
	"fmt"
	"testing"

	"bpagg/internal/oracle"
)

// fanOut.plan is the one place a statement's routes are chosen, and
// flatView.eval runs them (DESIGN.md §7). These tests pin the route
// matrix — which route answers which aggregate under which filter — and
// the allocation facts that follow from choosing in one place: a range's
// selection is cut once per part per statement, a two-phase call builds
// one effective selection, and the shard fan-out hands each shard a view
// by value and allocates nothing per window of a sweep.

// routeTable is four 12-bit measures over n rows — v (VBP), n (v with
// every 5th row NULL), a (VBP filter column), h (HBP filter column, so its
// window width differs from v's) — and a 3-bit g for IN-lists.
func routeTable(n int) (*Table, map[string]*oracle.Column) {
	cols := map[string]*Column{
		"v": NewColumn(VBP, 12), "n": NewColumn(VBP, 12), "a": NewColumn(VBP, 12),
		"h": NewColumn(HBP, 12), "g": NewColumn(VBP, 3),
	}
	ref := map[string]*oracle.Column{}
	for name := range cols {
		ref[name] = &oracle.Column{Vals: make([]uint64, n)}
	}
	ref["n"].Nulls = make([]bool, n)
	for i := 0; i < n; i++ {
		x := uint64(i*2654435761) >> 7 & 0xfff
		row := map[string]uint64{"v": x, "n": x, "a": uint64(i*40503) & 0xfff, "h": uint64(i*40503) & 0xfff, "g": uint64(i) & 7}
		for name, val := range row {
			ref[name].Vals[i] = val
			if name == "n" && i%5 == 0 {
				ref[name].Nulls[i] = true
				cols[name].AppendNull()
			} else {
				cols[name].Append(val)
			}
		}
	}
	names := []string{"v", "n", "a", "h", "g"}
	list := make([]*Column, len(names))
	for i, name := range names {
		list[i] = cols[name]
	}
	return NewTableFromColumns(names, list), ref
}

// TestEvalRoutes: every aggOp × {unranged, ranged} × filter kind, run as
// a statement of one call, is answered by the route the plan names —
// read off the collector — and equals the naive oracle; an unranged
// non-rank cell's Fused agrees with its letter. One letter per aggOp in
// declaration order (CountRows Count Sum SumCount Min Max Median Rank
// Quantile): I = prefix-sum index, F = fused pass, T = two-phase on the
// selection. Later rows plan statements of two calls on a 3-part store,
// run two calls in either order over a filter-free range, and pick a
// grouped pass's filter on a 3-part store.
func TestEvalRoutes(t *testing.T) {
	const n, lo, hi = 64*40 + 17, 100, 64*40 - 33
	tbl, ref := routeTable(n)
	ctx := context.Background()
	for _, kind := range []struct {
		name              string
		column            string
		filter            func(q *Query)
		pass              func(i int) bool
		clauses           uint64
		materialize       bool
		threads           int
		unranged, inRange string
	}{
		{name: "no filter", column: "v",
			unranged: "TTTTTTTTT", inRange: "IIIIIITTT"},
		// The kept selection of no clause is every row: the range still
		// reads the index.
		{name: "no filter, materialized", column: "v", materialize: true,
			unranged: "TTTTTTTTT", inRange: "IIIIIITTT"},
		{name: "fusible filter", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "FFFFFFFFF", inRange: "TTTTTTTTT"},
		{name: "IN-list", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("g", In(1, 3, 5)) }, pass: func(i int) bool { return i&1 == 1 && i&7 != 7 },
			unranged: "TTTTTTTTT", inRange: "TTTTTTTTT"},
		// COUNT(*) has no aggregate column: only the clauses decide.
		{name: "NULL-bearing column", column: "n",
			unranged: "TTTTTTTTT", inRange: "ITTTTTTTT"},
		{name: "NULL-bearing column, fusible filter", column: "n", clauses: 1,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "FTTTTTTTT", inRange: "TTTTTTTTT"},
		{name: "mixed window widths", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("h", Less(2000)) }, pass: func(i int) bool { return ref["h"].Vals[i] < 2000 },
			unranged: "FTTTTTTTT", inRange: "TTTTTTTTT"},
		{name: "materialized selection", column: "v", materialize: true,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "TTTTTTTTT", inRange: "TTTTTTTTT"},
		// About 0.3 % of the rows, on four workers, over the VBP column
		// with NULLs and over the HBP one: a sliver of a selection still
		// runs the bit-parallel kernels, and answers as the oracle does.
		{name: "sparse materialized selection, NULLs, Parallel(4)", column: "n", materialize: true, threads: 4,
			filter: func(q *Query) { q.Where("a", Less(13)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 13 },
			unranged: "TTTTTTTTT", inRange: "TTTTTTTTT"},
		{name: "sparse materialized selection, HBP, Parallel(4)", column: "h", materialize: true, threads: 4,
			filter: func(q *Query) { q.Where("a", Less(13)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 13 },
			unranged: "TTTTTTTTT", inRange: "TTTTTTTTT"},
	} {
		for _, ranged := range []bool{false, true} {
			routes := kind.unranged
			sel := make([]bool, n)
			for i := range sel {
				sel[i] = (kind.pass == nil || kind.pass(i)) && (!ranged || lo <= i && i < hi)
			}
			if ranged {
				routes = kind.inRange
			}
			oc := ref[kind.column]
			for op := opCountRows; op <= opQuantile; op++ {
				id := fmt.Sprintf("%s/ranged=%v/op=%d", kind.name, ranged, op)
				q := tbl.Query().WithStats()
				if kind.threads > 0 {
					q.With(Parallel(kind.threads))
				}
				if kind.filter != nil {
					kind.filter(q)
				}
				if kind.materialize {
					q.Selection()
				}
				c := aggCall{op: op, column: kind.column, rank: 5, quantile: 0.9}
				if op == opCountRows {
					c.column = ""
				}
				f := &q.fanOut
				if ranged {
					f = &q.Range(lo, hi).fanOut
				} else if fused := q.Fused(c.column); !c.isRank() && fused != (routes[op] == 'F') {
					t.Errorf("%s: Fused(%q) = %v, route %c", id, c.column, fused, routes[op])
				}
				before := q.Stats()
				f.scratch.calls = []aggCall{c}
				var out [1]AggResult
				if err := f.aggs(ctx, out[:]); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				got := out[0]
				s := q.Stats().Sub(before)

				// Which route answered.
				indexWork := s.SegmentsIndexServed + s.RangeFringeWords
				switch routes[op] {
				case 'I':
					wantAggs := uint64(1)
					if op == opSumCount {
						wantAggs = 2
					}
					if s.Scans != 0 || s.SegmentsAggregated != 0 || s.WordsTouched != 0 || s.Aggregates != wantAggs ||
						op >= opSum && indexWork == 0 {
						t.Errorf("%s: want index-served, stats %+v", id, s)
					}
				case 'F':
					if s.Scans != kind.clauses || s.ScanNanos != 0 || s.Aggregates != 1 || indexWork != 0 {
						t.Errorf("%s: want fused, stats %+v", id, s)
					}
				case 'T':
					pending := kind.clauses > 0 && !kind.materialize
					popcountOnly := op <= opCount && s.Aggregates == 0
					if indexWork != 0 || pending != (s.ScanNanos > 0) || !pending && s.Scans != 0 ||
						!popcountOnly && s.SegmentsAggregated == 0 {
						t.Errorf("%s: want two-phase, stats %+v", id, s)
					}
				}

				// The answer.
				want := AggResult{OK: true}
				switch {
				case op == opCountRows:
					want.Value = oracle.CountRows(sel)
				case op == opCount:
					want.Value = oc.Count(sel)
				case op <= opSumCount:
					want.Value, _ = oc.SumUint64(sel)
					want.Count = oc.Count(sel)
				case op == opMin:
					want.Value, want.OK = oc.Min(sel)
				case op == opMax:
					want.Value, want.OK = oc.Max(sel)
				case op == opMedian:
					want.Value, want.OK = oc.Median(sel)
				case op == opRank:
					want.Value, want.OK = oc.Rank(sel, 5)
				default:
					want.Value, want.OK = oc.Quantile(sel, 0.9)
				}
				if got != want {
					t.Errorf("%s: got %+v, oracle %+v", id, got, want)
				}
			}
		}
	}

	// Fusion is all or nothing per statement: on three parts at
	// Parallel(2), COUNT(*) alone fuses under a filter on h, but beside
	// SUM(v) — a VBP column, whose windows are not h's — both calls run
	// two-phase on one kept selection per part.
	st := ShardTable(tbl, n/3+1)
	sel := make([]bool, n)
	for i := range sel {
		sel[i] = ref["h"].Vals[i] < 2000
	}
	wantSum, _ := ref["v"].SumUint64(sel)
	for _, stmt := range []struct {
		calls []aggCall
		fused bool
	}{
		{[]aggCall{{op: opCountRows}}, true},
		{[]aggCall{{op: opCountRows}, {op: opSumCount, column: "v"}}, false},
	} {
		id := fmt.Sprintf("3 parts/%d calls", len(stmt.calls))
		q := st.Query().With(Parallel(2)).WithStats().Where("h", Less(2000))
		if got := q.plan(stmt.calls, nil).fused; got != stmt.fused || !q.Fused("") {
			t.Errorf("%s: plan fused %v, want %v; Fused(\"\") %v, want true", id, got, stmt.fused, q.Fused(""))
		}
		q.scratch.calls = stmt.calls
		out := make([]AggResult, len(stmt.calls))
		if err := q.aggs(ctx, out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		s := q.Stats()
		if s.ShardsScanned != 3 || s.Scans != 3 || stmt.fused != (s.ScanNanos == 0) {
			t.Errorf("%s: want %d scans, fused %v, stats %+v", id, 3, stmt.fused, s)
		}
		if out[0].Value != oracle.CountRows(sel) || len(out) == 2 && (out[1].Value != wantSum || out[1].Count != oracle.CountRows(sel)) {
			t.Errorf("%s: got %+v, oracle count %d sum %d", id, out, oracle.CountRows(sel), wantSum)
		}
	}

	// A filter-free range reads the index whatever ran before: a rank
	// first cuts the range's selection, and a SUM after it, in the same
	// statement or the next, still reads the index.
	const rows, rlo, rhi = 1 << 14, 100, 9000
	big, bigRef := routeTable(rows)
	bigSel := make([]bool, rows)
	for i := rlo; i < rhi; i++ {
		bigSel[i] = true
	}
	bigSum, _ := bigRef["v"].SumUint64(bigSel)
	bigMedian, _ := bigRef["v"].Median(bigSel)
	var booked [2]ExecStats
	for i, aggs := range [][]GroupAgg{
		{{Op: "SUM", Column: "v"}, {Op: "MEDIAN", Column: "v"}},
		{{Op: "MEDIAN", Column: "v"}, {Op: "SUM", Column: "v"}},
	} {
		q := big.Query().WithStats()
		rq := q.Range(rlo, rhi)
		row, err := rq.AggsContext(ctx, aggs)
		if err != nil {
			t.Fatal(err)
		}
		booked[i] = q.Stats()
		sum, median := row[0], row[1]
		if i == 1 {
			sum, median = row[1], row[0]
		}
		if sum.Value != bigSum || median.Value != bigMedian {
			t.Errorf("%s, %s: got SUM %d MEDIAN %d, oracle %d %d", aggs[0].Op, aggs[1].Op, sum.Value, median.Value, bigSum, bigMedian)
		}
		before := q.Stats()
		if got, err := rq.SumContext(ctx, "v"); err != nil || got != bigSum {
			t.Errorf("%s, %s then SUM: %d, %v, oracle %d", aggs[0].Op, aggs[1].Op, got, err, bigSum)
		}
		if s := q.Stats().Sub(before); s.SegmentsIndexServed == 0 || s.WordsTouched != 0 {
			t.Errorf("%s, %s then SUM: want index-served, stats %+v", aggs[0].Op, aggs[1].Op, s)
		}
	}
	if a, b := booked[0], booked[1]; a.SegmentsIndexServed == 0 || a.SegmentsIndexServed != b.SegmentsIndexServed || a.WordsTouched != b.WordsTouched {
		t.Errorf("SUM, MEDIAN books %d index segments, %d words; MEDIAN, SUM %d, %d",
			a.SegmentsIndexServed, a.WordsTouched, b.SegmentsIndexServed, b.WordsTouched)
	}

	// A grouped pass's filter is one verdict for the statement: on three
	// parts at Parallel(2), a key column with NULLs in one part only sends
	// every part to the bitmap, and with no NULLs every part reads the
	// predicates — and so does a clause-free pass after Selection. The
	// pass books its own wall time as ScanNanos either way, so the route
	// shows in each part's kept selection.
	for _, nullPart := range []bool{true, false} {
		gt, gref := groupRouteTable(n, nullPart)
		gst := ShardTable(gt, n/3+1)
		named := []GroupAgg{{Op: "SUM", Column: "v"}, {Op: "COUNT"}}
		for _, clause := range []bool{true, false} {
			id := fmt.Sprintf("grouped/NULL keys in one part=%v/clause=%v", nullPart, clause)
			q := gst.Query().With(Parallel(2)).WithStats()
			gsel := make([]bool, n)
			for i := range gsel {
				gsel[i] = !clause || gref["a"].Vals[i] < 2000
			}
			if clause {
				q.Where("a", Less(2000))
			} else {
				q.Selection()
			}
			bitmap := nullPart
			if got := q.plan([]aggCall{{op: opSum, column: "v"}}, []string{"k"}).fused; got == bitmap {
				t.Errorf("%s: plan reads predicates %v, want %v", id, got, !bitmap)
			}
			g, err := q.GroupByAggsContext(ctx, []string{"k"}, named)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if clause { // the bitmap is the part's kept selection; the predicates build none
				for s, sq := range q.shardQ {
					if (sq.sel != nil) != bitmap {
						t.Errorf("%s: part %d materialized its selection %v, want %v", id, s, sq.sel != nil, bitmap)
					}
				}
			}
			keys, groups := gref["k"].GroupBy(gsel)
			counts, sums := g.Count(), g.Sum("v")
			if fmt.Sprint(g.Keys()) != fmt.Sprint(keys) {
				t.Fatalf("%s: keys %v, oracle %v", id, g.Keys(), keys)
			}
			for i, grp := range groups {
				if ws, _ := gref["v"].SumUint64(grp); counts[i] != oracle.CountRows(grp) || sums[i] != ws {
					t.Errorf("%s: group %d count %d sum %d, oracle %d %d", id, keys[i], counts[i], sums[i], oracle.CountRows(grp), ws)
				}
			}
		}
	}
}

// groupRouteTable is a 12-bit measure v, a 12-bit filter column a and a
// 3-bit key k over n rows; with nullPart, every 7th row of the last third
// is NULL in k, so a 3-part split holds key NULLs in its last part only.
func groupRouteTable(n int, nullPart bool) (*Table, map[string]*oracle.Column) {
	v, a, k := NewColumn(VBP, 12), NewColumn(VBP, 12), NewColumn(VBP, 3)
	ref := map[string]*oracle.Column{"v": {}, "a": {}, "k": {Nulls: make([]bool, n)}}
	for i := 0; i < n; i++ {
		x, y, key := uint64(i*2654435761)>>7&0xfff, uint64(i*40503)&0xfff, uint64(i*40503)>>3&7
		v.Append(x)
		a.Append(y)
		if nullPart && i >= 2*n/3+1 && i%7 == 0 {
			k.AppendNull()
			ref["k"].Nulls[i] = true
		} else {
			k.Append(key)
		}
		ref["v"].Vals, ref["a"].Vals, ref["k"].Vals = append(ref["v"].Vals, x), append(ref["a"].Vals, y), append(ref["k"].Vals, key)
	}
	return NewTableFromColumns([]string{"v", "a", "k"}, []*Column{v, a, k}), ref
}

// TestRangeSumCountBuildsSelectionOnce: SUM+COUNT over a filtered range
// builds the range ∧ filter selection once, like SUM alone — it used to
// build it once for COUNT and again for SUM (two extra n/8-byte bitmaps per
// call, per live shard through the fan-out). Every comparison is between
// allocation counts of the same run, so it holds on any Go version.
func TestRangeSumCountBuildsSelectionOnce(t *testing.T) {
	ctx := context.Background()
	const rows = 1 << 14
	a, b := NewColumn(VBP, 12), NewColumn(VBP, 12)
	for i := 0; i < rows; i++ {
		a.Append(uint64(i*40503) & 0xfff)
		b.Append(uint64(i*2654435761) >> 7 & 0xfff)
	}
	tbl := NewTableFromColumns([]string{"a", "b"}, []*Column{a, b})
	allocs := func(f func()) float64 { return testing.AllocsPerRun(10, f) }

	sumCount := allocs(func() { tbl.Query().Where("a", Less(2000)).Range(100, 9000).SumCountContext(ctx, "b") })
	sum := allocs(func() { tbl.Query().Where("a", Less(2000)).Range(100, 9000).SumContext(ctx, "b") })
	if sumCount != sum {
		t.Errorf("flat: SumCountContext %v allocs/op, SumContext %v: the selection is built more than once", sumCount, sum)
	}

	// Through the fan-out SUM is SUM+COUNT, so compare differences: what
	// SUM+COUNT costs over COUNT under a range (selection + kernel, per
	// live shard) with what it costs over COUNT on a kept selection (kernel
	// alone) — equal exactly when COUNT's selection also served the SUM.
	st := ShardTable(tbl, rows/4)
	ranged := func() *ShardedRangeQuery { return st.Query().Where("a", Less(2000)).Range(100, rows-100) }
	kept := func() *ShardedQuery {
		q := st.Query().Where("a", Less(2000))
		q.materialize()
		return q
	}
	overRange := allocs(func() { ranged().SumCountContext(ctx, "b") }) - allocs(func() { ranged().CountContext(ctx, "b") })
	overKept := allocs(func() { kept().SumCountContext(ctx, "b") }) - allocs(func() { kept().CountContext(ctx, "b") })
	if overRange != overKept {
		t.Errorf("4 shards: SUM+COUNT costs %v allocs/op more than COUNT under a range, %v on a kept selection", overRange, overKept)
	}

	// A filter-free range has no index form for a rank, so its part cuts
	// the range's selection, once for the statement: a second rank costs
	// what it costs on a kept selection, which is never cut. It used to cut
	// again for every call the index did not serve.
	second := func(run func(aggs []GroupAgg)) float64 {
		two := []GroupAgg{{Op: "MEDIAN", Column: "b"}, {Op: "QUANTILE", Column: "b", Quantile: 0.9}}
		return allocs(func() { run(two) }) - allocs(func() { run(two[:1]) })
	}
	rankOverRange := second(func(aggs []GroupAgg) { tbl.Query().Range(100, rows-100).AggsContext(ctx, aggs) })
	rankOverKept := second(func(aggs []GroupAgg) {
		q := tbl.Query().Where("a", LessEq(1<<12-1))
		q.materialize()
		q.AggsContext(ctx, aggs)
	})
	if rankOverRange != rankOverKept {
		t.Errorf("a second rank costs %v allocs/op over a filter-free range, %v on a kept selection: the range is cut more than once", rankOverRange, rankOverKept)
	}

	// A two-phase SUM+COUNT over a column with NULLs drops them from the
	// selection once for both answers: it costs over COUNT on n what it
	// costs on the NULL-free v. It used to drop them once for each.
	nt, _ := routeTable(rows)
	inList := func() *Query { return nt.Query().Where("g", In(1, 3, 5)) }
	overCount := func(column string) float64 {
		return allocs(func() { inList().SumCountContext(ctx, column) }) - allocs(func() { inList().CountContext(ctx, column) })
	}
	if onN, onV := overCount("n"), overCount("v"); onN != onV {
		t.Errorf("SUM+COUNT costs %v allocs/op more than COUNT on a NULL-bearing column, %v on a NULL-free one", onN, onV)
	}
}

// TestWindowSweepAllocs: a window sweep allocates nothing per window —
// its result slices are sized up front and the fan-out builds no closure
// — so 32 windows cost what 16 do, on a table's store and on 4 parts.
func TestWindowSweepAllocs(t *testing.T) {
	ctx := context.Background()
	const rows = 1 << 14
	tbl := pinTable(VBP, rows)
	for _, q := range []*Query{tbl.Query(), ShardTable(tbl, rows/4).Query()} {
		sweep := func(size int) float64 {
			w := q.Window(size, size)
			if _, err := w.SumContext(ctx, "v"); err != nil { // builds the kept states and the index
				t.Fatal(err)
			}
			return testing.AllocsPerRun(10, func() { w.SumContext(ctx, "v") })
		}
		if w16, w32 := sweep(1024), sweep(512); w16 != w32 {
			t.Errorf("%d parts: SumContext over 16 windows %v allocs/op, over 32 windows %v", len(q.st.shards), w16, w32)
		}
	}
}

// TestShardRangeViewAllocs: a ranged fan-out allocates nothing per live
// shard — the shard's view is a value built from its kept state, not a
// RangeQuery cut per shard per aggregate — so an index-served MAX costs the
// same allocations over four live shards as over two.
func TestShardRangeViewAllocs(t *testing.T) {
	ctx := context.Background()
	const shardRows = 1 << 10
	st := ShardTable(pinTable(VBP, 4*shardRows), shardRows)
	allocsOver := func(hi int) float64 {
		rq := st.Query().Range(10, hi)
		if _, _, err := rq.MaxContext(ctx, "v"); err != nil { // builds the kept states and the index
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { rq.MaxContext(ctx, "v") })
	}
	if two, four := allocsOver(2*shardRows-10), allocsOver(4*shardRows-10); two != four {
		t.Errorf("MaxContext over a range: %v allocs/op across 2 live shards, %v across 4", two, four)
	}

	// A library query on a flat table pays the fan-out's state once: the
	// query with its state, the range view, the kept-state table and the
	// part's state, and the statement's calls and partials. The one-part
	// plan lives in the query's scratch, and the fan-out builds no closure.
	if raceEnabled {
		return
	}
	tbl := pinTable(VBP, 1<<16)
	tbl.Query().Range(100, 50000).Sum("v")
	if n := testing.AllocsPerRun(10, func() { tbl.Query().Range(100, 50000).Sum("v") }); n > 6 {
		t.Errorf("Query().Range(...).Sum over a flat table: %v allocs/op, want ≤ 6", n)
	}
}

// materialize builds every live shard's kept selection, as a statement
// does first when one of its aggregates cannot fuse.
func (q *ShardedQuery) materialize() {
	for _, part := range q.plan(nil, nil).parts {
		q.shardQuery(part.shard).selection()
	}
}
