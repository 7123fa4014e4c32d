package bpagg

import (
	"context"
	"fmt"
	"testing"

	"bpagg/internal/oracle"
)

// flatView.eval is the flat engine's one chooser (DESIGN.md §7). These
// tests pin the route matrix — which engine answers which aggregate under
// which filter — and the two allocation facts that follow from choosing in
// one place: a range's selection is built once per aggregate, and the
// shard fan-out hands each shard a view by value.

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

// TestEvalRoutes: every aggOp × {unranged, ranged} × filter kind is
// answered by the engine the matrix names — read off the collector — and
// equals the naive oracle. One letter per aggOp in declaration order
// (CountRows Count Sum SumCount Avg Min Max Median Rank Quantile):
// I = prefix-sum index, F = fused pass, T = two-phase on the selection.
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
		unranged, inRange string
	}{
		{name: "no filter", column: "v",
			unranged: "TTTTTTTTTT", inRange: "IIIIIIITTT"},
		{name: "fusible filter", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "FFFFFFFFFF", inRange: "TTTTTTTTTT"},
		{name: "IN-list", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("g", In(1, 3, 5)) }, pass: func(i int) bool { return i&1 == 1 && i&7 != 7 },
			unranged: "TTTTTTTTTT", inRange: "TTTTTTTTTT"},
		// COUNT(*) has no aggregate column: only the clauses decide.
		{name: "NULL-bearing column", column: "n",
			unranged: "TTTTTTTTTT", inRange: "ITTTTTTTTT"},
		{name: "NULL-bearing column, fusible filter", column: "n", clauses: 1,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "FTTTTTTTTT", inRange: "TTTTTTTTTT"},
		{name: "mixed window widths", column: "v", clauses: 1,
			filter: func(q *Query) { q.Where("h", Less(2000)) }, pass: func(i int) bool { return ref["h"].Vals[i] < 2000 },
			unranged: "FTTTTTTTTT", inRange: "TTTTTTTTTT"},
		{name: "materialized selection", column: "v", materialize: true,
			filter: func(q *Query) { q.Where("a", Less(2000)) }, pass: func(i int) bool { return ref["a"].Vals[i] < 2000 },
			unranged: "TTTTTTTTTT", inRange: "TTTTTTTTTT"},
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
				if kind.filter != nil {
					kind.filter(q)
				}
				if kind.materialize {
					q.Selection()
				}
				view := &q.flatView
				if ranged {
					view = &q.Range(lo, hi).flatView
				}
				before := q.Stats()
				p, err := view.eval(ctx, &aggCall{op: op, column: kind.column, rank: 5, quantile: 0.9})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				s := q.Stats().Sub(before)

				// Which engine answered.
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
				var want partial
				switch {
				case op == opCountRows:
					want.cnt = oracle.CountRows(sel)
				case op == opCount:
					want.cnt = oc.Count(sel)
				case op == opSum:
					want.lo, _ = oc.SumUint64(sel)
				case op <= opAvg:
					want.lo, _ = oc.SumUint64(sel)
					want.cnt = oc.Count(sel)
				case op == opMin:
					want.lo, want.ok = oc.Min(sel)
				case op == opMax:
					want.lo, want.ok = oc.Max(sel)
				case op == opMedian:
					want.lo, want.ok = oc.Median(sel)
				case op == opRank:
					want.lo, want.ok = oc.Rank(sel, 5)
				default:
					want.lo, want.ok = oc.Quantile(sel, 0.9)
				}
				if op == opSum || op >= opMin {
					p.cnt = 0 // only the counting ops promise a count; other engines leave what they had at hand
				}
				if p != want {
					t.Errorf("%s: got %+v, oracle %+v", id, p, want)
				}
			}
		}
	}
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
		if err := q.MaterializeContext(ctx); err != nil {
			t.Fatal(err)
		}
		return q
	}
	overRange := allocs(func() { ranged().SumCountContext(ctx, "b") }) - allocs(func() { ranged().CountContext(ctx, "b") })
	overKept := allocs(func() { kept().SumCountContext(ctx, "b") }) - allocs(func() { kept().CountContext(ctx, "b") })
	if overRange != overKept {
		t.Errorf("4 shards: SUM+COUNT costs %v allocs/op more than COUNT under a range, %v on a kept selection", overRange, overKept)
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
}
