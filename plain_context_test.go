package bpagg

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The plain aggregate methods are wrappers over their ...Context twins
// (DESIGN.md "Execution route"). These tests pin that there is one
// implementation: whatever the Context method returns, the plain method
// returns or panics with — value for value, error for error.

// plainCase is one table: measure "v" (k bits, optionally with NULLs), a
// 12-bit predicate column "p" and a 3-bit grouping column "g", all in one
// layout, plus the WHERE predicate on "p".
type plainCase struct {
	name      string
	k         int
	val       func(i int) uint64
	nullEvery int
	pred      Predicate
}

var plainCases = []plainCase{
	{name: "no-nulls", k: 12, val: func(i int) uint64 { return uint64(i*2654435761) & 0xfff }, pred: Less(3000)},
	{name: "nulls", k: 12, val: func(i int) uint64 { return uint64(i*2654435761) & 0xfff }, nullEvery: 7, pred: Less(3000)},
	{name: "empty-selection", k: 12, val: func(i int) uint64 { return uint64(i) & 0xfff }, pred: Less(0)},
	// Every value is ≥ 2^63, so any two selected rows overflow SUM and AVG.
	{name: "overflow-possible", k: 64, val: func(i int) uint64 { return 1<<63 + uint64(i) }, pred: Less(3000)},
}

func (pc plainCase) build(layout Layout) *Table {
	const n = 64*5 + 7
	v, p, g := NewColumn(layout, pc.k), NewColumn(layout, 12), NewColumn(layout, 3)
	for i := 0; i < n; i++ {
		if pc.nullEvery > 0 && i%pc.nullEvery == 0 {
			v.AppendNull()
		} else {
			v.Append(pc.val(i))
		}
		p.Append(uint64(i*40503) & 0xfff)
		g.Append(uint64(i/50) & 7)
	}
	return NewTableFromColumns([]string{"v", "p", "g"}, []*Column{v, p, g})
}

// twin is one aggregate through both doors.
type twin struct {
	name  string
	plain func() any
	ctx   func() (any, error)
}

func c1[T any](v T, err error) (any, error)         { return v, err }
func c2[T, U any](v T, u U, err error) (any, error) { return [2]any{v, u}, err }
func p2[T any](v T, ok bool) any                    { return [2]any{v, ok} }

// keysOf reduces a partition to its key list, the comparable part.
func keysOf[G interface{ Keys() []uint64 }](g G, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return g.Keys(), nil
}

// checkTwin runs both doors: on a Context error the plain method must
// panic with an equal error value, otherwise it must return an equal
// result without panicking.
func checkTwin(t *testing.T, tw twin) {
	t.Helper()
	want, err := tw.ctx()
	var got, panicked any
	func() {
		defer func() { panicked = recover() }()
		got = tw.plain()
	}()
	if err != nil {
		if !reflect.DeepEqual(panicked, err) {
			t.Errorf("%s: Context error %#v, plain panic %#v", tw.name, err, panicked)
		}
		return
	}
	if panicked != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Context %v, plain %v (panic %v)", tw.name, want, got, panicked)
	}
}

func TestPlainIsContext(t *testing.T) {
	ctx := context.Background()
	for _, pc := range plainCases {
		for _, layout := range []Layout{VBP, HBP} {
			t.Run(fmt.Sprintf("%s/%v", pc.name, layout), func(t *testing.T) {
				tbl := pc.build(layout)
				col := tbl.Column("v")
				sel := tbl.Column("p").Scan(pc.pred)
				short := &Bitmap{b: sel.b.Clone()}
				short.b.Resize(sel.b.Len() - 1)
				for _, opts := range [][]ExecOption{nil, {Parallel(4)}, {Access(Reconstruct)}} {
					for _, tw := range []twin{
						{"Column.Sum", func() any { return col.Sum(sel, opts...) }, func() (any, error) { return c1(col.SumContext(ctx, sel, opts...)) }},
						{"Column.Min", func() any { return p2(col.Min(sel, opts...)) }, func() (any, error) { return c2(col.MinContext(ctx, sel, opts...)) }},
						{"Column.Max", func() any { return p2(col.Max(sel, opts...)) }, func() (any, error) { return c2(col.MaxContext(ctx, sel, opts...)) }},
						{"Column.Avg", func() any { return p2(col.Avg(sel, opts...)) }, func() (any, error) { return c2(col.AvgContext(ctx, sel, opts...)) }},
						{"Column.Median", func() any { return p2(col.Median(sel, opts...)) }, func() (any, error) { return c2(col.MedianContext(ctx, sel, opts...)) }},
						{"Column.Rank", func() any { return p2(col.Rank(sel, 3, opts...)) }, func() (any, error) { return c2(col.RankContext(ctx, sel, 3, opts...)) }},
						{"Column.Quantile", func() any { return p2(col.Quantile(sel, 0.9, opts...)) }, func() (any, error) { return c2(col.QuantileContext(ctx, sel, 0.9, opts...)) }},
						{"Column.Quantile(1.5)", func() any { return p2(col.Quantile(sel, 1.5, opts...)) }, func() (any, error) { return c2(col.QuantileContext(ctx, sel, 1.5, opts...)) }},
						{"Column.Sum(short selection)", func() any { return col.Sum(short, opts...) }, func() (any, error) { return c1(col.SumContext(ctx, short, opts...)) }},
					} {
						checkTwin(t, tw)
					}
				}

				// The sharded range view's plain GroupBy, promoted from the
				// same implementation as ShardedQuery's.
				st := ShardTable(tbl, 100)
				rq := func() *ShardedRangeQuery { return st.Query().Where("p", pc.pred).Range(10, 300) }
				checkTwin(t, twin{"ShardedRangeQuery.GroupBy", func() any { return rq().GroupBy("g").Keys() }, func() (any, error) { return keysOf(rq().GroupByContext(ctx, "g")) }})
				checkTwin(t, twin{"ShardedRangeQuery.GroupBy(unknown column)", func() any { return rq().GroupBy("nope").Keys() }, func() (any, error) { return keysOf(rq().GroupByContext(ctx, "nope")) }})

				// Query: a fresh query per call (Selection is sticky), once
				// on the lazy route (fuses when the planner allows) and once
				// with the bitmap materialized first.
				for _, bitmap := range []bool{false, true} {
					nq := func() *Query {
						q := tbl.Query().Where("p", pc.pred)
						if bitmap {
							q.Selection()
						}
						return q
					}
					for _, tw := range []twin{
						{"Query.CountRows", func() any { return nq().CountRows() }, func() (any, error) { return c1(nq().CountRowsContext(ctx)) }},
						{"Query.Count", func() any { return nq().Count("v") }, func() (any, error) { return c1(nq().CountContext(ctx, "v")) }},
						{"Query.Sum", func() any { return nq().Sum("v") }, func() (any, error) { return c1(nq().SumContext(ctx, "v")) }},
						{"Query.Min", func() any { return p2(nq().Min("v")) }, func() (any, error) { return c2(nq().MinContext(ctx, "v")) }},
						{"Query.Max", func() any { return p2(nq().Max("v")) }, func() (any, error) { return c2(nq().MaxContext(ctx, "v")) }},
						{"Query.Avg", func() any { return p2(nq().Avg("v")) }, func() (any, error) { return c2(nq().AvgContext(ctx, "v")) }},
						{"Query.Median", func() any { return p2(nq().Median("v")) }, func() (any, error) { return c2(nq().MedianContext(ctx, "v")) }},
						{"Query.Rank", func() any { return p2(nq().Rank("v", 3)) }, func() (any, error) { return c2(nq().RankContext(ctx, "v", 3)) }},
						{"Query.Quantile", func() any { return p2(nq().Quantile("v", 0.9)) }, func() (any, error) { return c2(nq().QuantileContext(ctx, "v", 0.9)) }},
						{"Query.Quantile(-1)", func() any { return p2(nq().Quantile("v", -1)) }, func() (any, error) { return c2(nq().QuantileContext(ctx, "v", -1)) }},
						{"Query.Sum(unknown column)", func() any { return nq().Sum("nope") }, func() (any, error) { return c1(nq().SumContext(ctx, "nope")) }},
						{"RangeQuery.GroupBy", func() any { return nq().Range(10, 300).GroupBy("g").Keys() }, func() (any, error) { return keysOf(nq().Range(10, 300).GroupByContext(ctx, "g")) }},
						{"RangeQuery.GroupBy(unknown column)", func() any { return nq().Range(10, 300).GroupBy("nope").Keys() }, func() (any, error) { return keysOf(nq().Range(10, 300).GroupByContext(ctx, "nope")) }},
					} {
						tw.name = fmt.Sprintf("%s bitmap=%v", tw.name, bitmap)
						checkTwin(t, tw)
					}

					g := nq().GroupBy("g")
					for _, tw := range []twin{
						{"Grouped.Count", func() any { return g.Count() }, func() (any, error) { return c1(g.CountContext(ctx)) }},
						{"Grouped.Sum", func() any { return g.Sum("v") }, func() (any, error) { return c1(g.SumContext(ctx, "v")) }},
						{"Grouped.Min", func() any { return g.Min("v") }, func() (any, error) { return c1(g.MinContext(ctx, "v")) }},
						{"Grouped.Max", func() any { return g.Max("v") }, func() (any, error) { return c1(g.MaxContext(ctx, "v")) }},
						{"Grouped.Avg", func() any { return g.Avg("v") }, func() (any, error) { return c1(g.AvgContext(ctx, "v")) }},
						{"Grouped.Median", func() any { return g.Median("v") }, func() (any, error) { return c1(g.MedianContext(ctx, "v")) }},
						{"Grouped.Sum(unknown column)", func() any { return g.Sum("nope") }, func() (any, error) { return c1(g.SumContext(ctx, "nope")) }},
					} {
						tw.name = fmt.Sprintf("%s bitmap=%v strategy=%v", tw.name, bitmap, g.Strategy())
						checkTwin(t, tw)
					}
				}
			})
		}
	}
}

// TestQuantileRejectsNaN: every quantile entry point rejects NaN the same
// way — the plain method panics with the range error, the Context method
// returns it — instead of letting NaN reach the float→uint64 rank
// conversion (whose result is architecture-dependent).
func TestQuantileRejectsNaN(t *testing.T) {
	ctx := context.Background()
	nan := math.NaN()
	const want = "bpagg: quantile NaN outside [0,1]"
	for _, layout := range []Layout{VBP, HBP} {
		tbl := NewTable()
		tbl.AddColumn("v", layout, 8)
		tbl.AddColumn("g", layout, 2)
		tbl.AppendColumnar(map[string][]uint64{"v": {1, 2, 3, 4, 5}, "g": {0, 1, 0, 1, 0}})
		st := ShardTable(tbl, 2)
		col := tbl.Column("v")
		q := func() *Query { return tbl.Query().Where("v", Less(200)) }
		bq := func() *Query { q := q(); q.Selection(); return q }
		sq := func() *ShardedQuery { return st.Query().Where("v", Less(200)) }

		for _, tw := range []twin{
			{"Column", func() any { return p2(col.Quantile(col.All(), nan)) }, func() (any, error) { return c2(col.QuantileContext(ctx, col.All(), nan)) }},
			{"Query fused", func() any { return p2(q().Quantile("v", nan)) }, func() (any, error) { return c2(q().QuantileContext(ctx, "v", nan)) }},
			{"Query bitmap", func() any { return p2(bq().Quantile("v", nan)) }, func() (any, error) { return c2(bq().QuantileContext(ctx, "v", nan)) }},
			{"RangeQuery", func() any { return p2(q().Range(0, 4).Quantile("v", nan)) }, func() (any, error) { return c2(q().Range(0, 4).QuantileContext(ctx, "v", nan)) }},
			{"ShardedQuery", func() any { return p2(sq().Quantile("v", nan)) }, func() (any, error) { return c2(sq().QuantileContext(ctx, "v", nan)) }},
			{"ShardedRangeQuery", func() any { return p2(sq().Range(0, 4).Quantile("v", nan)) }, func() (any, error) { return c2(sq().Range(0, 4).QuantileContext(ctx, "v", nan)) }},
		} {
			tw.name = fmt.Sprintf("%v %s", layout, tw.name)
			if _, err := tw.ctx(); err == nil || err.Error() != want {
				t.Errorf("%s: Context error %v, want %q", tw.name, err, want)
			}
			checkTwin(t, tw)
		}
		if !q().Fused("v") {
			t.Errorf("%v: the lazy query did not plan fused", layout)
		}
		if _, _, err := sq().GroupBy("g").QuantileOkContext(ctx, "v", nan); err == nil || err.Error() != want {
			t.Errorf("%v ShardedGrouped.QuantileOkContext error %v, want %q", layout, err, want)
		}
	}
}
