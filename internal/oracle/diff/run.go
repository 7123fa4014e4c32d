package diff

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/oracle"
	"bpagg/internal/sqlmini"
)

// Check runs every cell the case carries — each store shape in each
// state, at each thread count — and returns the first divergence (nil
// when engine and oracle agree everywhere).
func Check(c Case) error {
	if err := validate(&c); err != nil {
		return err
	}
	x := expect(&c)
	threads := c.Threads
	if len(threads) == 0 {
		threads = []int{1, 8}
	}
	shards := c.Shards
	if len(shards) == 0 {
		shards = []int{0}
	}
	for _, s := range shards {
		sts, err := c.stores(s)
		if err != nil {
			return err
		}
		for si, st := range sts {
			for ti, th := range threads {
				if ti > 0 && c.big && s > 0 {
					break
				}
				if err := (&run{x, &c, st, th, ti == 0, si == 0 && ti == 0}).cells(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// run is one store at one thread count: the cells it answers.
type run struct {
	x     *expectation
	c     *Case
	s     store
	th    int
	first bool // the primary thread count, which runs the fullest probe set
	sql   bool // the first state of the store shape at the primary count
}

// cells drives every route of the store in turn and returns the first
// divergence; an engine panic outside the plain Sum's contract is one.
func (r *run) cells() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("case %s [store=%s threads=%d]: engine panic: %v", r.c.Name, r.s.name, r.th, p)
		}
	}()
	for _, route := range r.routes() {
		if err := route(); err != nil {
			return err
		}
	}
	return nil
}

// routes lists the store's cells: the scalar battery (with the rank arms)
// and, at the primary count, the statement of every scalar aggregate; the
// two-phase route over a table's materialized selection; the Range probes
// and Window shapes; the grouped battery and the grouped statement (at
// the primary count also over the last range probe), and at the primary
// count the grouped battery over a one-part store's materialized
// selection; and SQL. A secondary thread
// count reruns a subset: thread sensitivity lives in the kernels the
// primary count already swept probe by probe.
func (r *run) routes() []func() error {
	x, sharded, onePart := r.x, r.s.flat == nil, r.s.st.NumShards() == 1
	var out []func() error
	add := func(f func() error) { out = append(out, f) }
	if !r.c.big {
		add(func() error {
			return r.scalars("query", queryAggs(func() query { return r.query(nil) }), &x.whole.all, true, true)
		})
	}
	if !r.c.big && r.first {
		add(func() error { return r.statement(&x.whole.all) })
	}
	if !r.c.big && !sharded {
		add(func() error {
			opts := []bpagg.ExecOption{bpagg.Parallel(r.th)}
			sel, col := r.storeQuery().Selection(), r.s.flat.Column("a")
			return r.scalars("twophase", columnAggs(col, sel, opts), &x.whole.all, true, true)
		})
	}
	for i, p := range r.c.Ranges {
		if !r.first && i%3 != 0 {
			continue
		}
		route := fmt.Sprintf("range[%d,%d)", p[0], p[1])
		// A sharded store ranks the whole table (probe 0) and, at the
		// primary thread count, the interior probe (the last): the whole
		// table alone would pass a rank that dropped the row mask.
		ranks := i%3 == 0 && !sharded || sharded && r.first && (i == 0 || i == len(r.c.Ranges)-1)
		add(func() error {
			return r.scalars(route, queryAggs(func() query { return r.query(&p) }), &x.ranges[i].all, ranks, false)
		})
		if r.c.G != nil && i%3 == 0 {
			add(func() error {
				g, err := r.storeQuery().Range(p[0], p[1]).GroupByContext(context.Background(), r.c.groupCols()...)
				return r.groups("group-"+route, g, err, x.ranges[i])
			})
		}
	}
	for i, w := range windowShapes {
		if len(r.c.Ranges) == 0 || i > 0 && (!r.first || sharded && i == 1) {
			continue
		}
		add(func() error {
			return r.windows(fmt.Sprintf("window w%d/s%d", w[0], w[1]), r.storeQuery().Window(w[0], w[1]), x.windows[i])
		})
	}
	if r.c.G != nil {
		add(func() error {
			g, err := r.storeQuery().GroupByContext(context.Background(), r.c.groupCols()...)
			return r.groups("group", g, err, x.whole)
		})
		add(func() error { return r.groupStatement("group-statement", r.storeQuery(), x.whole) })
	}
	if n := len(r.c.Ranges); r.c.G != nil && n > 0 && r.first {
		// The last probe, an interior one, as the SQL statements take.
		p := r.c.Ranges[n-1]
		add(func() error {
			return r.groupStatement(fmt.Sprintf("group-statement range[%d,%d)", p[0], p[1]), r.storeQuery().Range(p[0], p[1]), x.ranges[n-1])
		})
	}
	if r.c.G != nil && onePart && r.first {
		add(func() error {
			q := r.storeQuery()
			q.Selection()
			g, err := q.GroupByContext(context.Background(), r.c.groupCols()...)
			return r.groups("group-materialized", g, err, x.whole)
		})
	}
	if r.sql {
		add(r.statements)
	}
	return out
}

// storeQuery builds the case's query on the store.
func (r *run) storeQuery() *bpagg.Query {
	q := r.s.st.Query().With(bpagg.Parallel(r.th))
	for _, ps := range r.c.Preds {
		q.Where(ps.Col, enginePred(ps.Pred))
	}
	return q
}

// query is the store's query, cut to the row range p when p is set.
func (r *run) query(p *[2]int) query {
	if p != nil {
		return r.storeQuery().Range(p[0], p[1])
	}
	return r.storeQuery()
}

// query is the scalar method set *Query and *RangeQuery share.
type query interface {
	Sum(string) uint64
	CountRowsContext(context.Context) (uint64, error)
	CountContext(context.Context, string) (uint64, error)
	SumContext(context.Context, string) (uint64, error)
	SumCountContext(context.Context, string) (uint64, uint64, error)
	MinContext(context.Context, string) (uint64, bool, error)
	MaxContext(context.Context, string) (uint64, bool, error)
	AvgContext(context.Context, string) (float64, bool, error)
	MedianContext(context.Context, string) (uint64, bool, error)
	RankContext(context.Context, string, uint64) (uint64, bool, error)
	QuantileContext(context.Context, string, float64) (uint64, bool, error)
}

// aggs is one source's scalar aggregates over column "a" as method values
// of one shape, so one battery serves a query, a row range, or a column
// over a bitmap. A nil entry is an aggregate the source does not have.
type aggs struct {
	countRows, count, sum, plainSum func() (uint64, error)
	sumCount                        func() ([2]uint64, error)
	min, max, median                func() (opt[uint64], error)
	avg                             func() (opt[float64], error)
	rank                            func(uint64) (opt[uint64], error)
	quantile                        func(float64) (opt[uint64], error)
	topK, bottomK                   func(int) ([]uint64, error)
}

// queryAggs is the battery's view of a query: mk builds a fresh one per
// aggregate, so each runs on the route the planner picks for it alone.
func queryAggs(mk func() query) aggs {
	ctx := context.Background()
	return aggs{
		countRows: func() (uint64, error) { return mk().CountRowsContext(ctx) },
		count:     func() (uint64, error) { return mk().CountContext(ctx, "a") },
		sum:       func() (uint64, error) { return mk().SumContext(ctx, "a") },
		plainSum:  func() (uint64, error) { return try(func() uint64 { return mk().Sum("a") }) },
		sumCount: func() ([2]uint64, error) {
			s, n, err := mk().SumCountContext(ctx, "a")
			return [2]uint64{s, n}, err
		},
		min:      func() (opt[uint64], error) { return ok3(mk().MinContext(ctx, "a")) },
		max:      func() (opt[uint64], error) { return ok3(mk().MaxContext(ctx, "a")) },
		avg:      func() (opt[float64], error) { return ok3(mk().AvgContext(ctx, "a")) },
		median:   func() (opt[uint64], error) { return ok3(mk().MedianContext(ctx, "a")) },
		rank:     func(n uint64) (opt[uint64], error) { return ok3(mk().RankContext(ctx, "a", n)) },
		quantile: func(q float64) (opt[uint64], error) { return ok3(mk().QuantileContext(ctx, "a", q)) },
	}
}

// columnAggs is the battery's view of the two-phase route: the query's
// selection materialized once, every aggregate a *Column call over it.
func columnAggs(col *bpagg.Column, sel *bpagg.Bitmap, opts []bpagg.ExecOption) aggs {
	ctx := context.Background()
	return aggs{
		countRows: func() (uint64, error) { return uint64(sel.Count()), nil },
		count:     func() (uint64, error) { return col.CountContext(ctx, sel) },
		sum:       func() (uint64, error) { return col.SumContext(ctx, sel, opts...) },
		min:       func() (opt[uint64], error) { return ok3(col.MinContext(ctx, sel, opts...)) },
		max:       func() (opt[uint64], error) { return ok3(col.MaxContext(ctx, sel, opts...)) },
		avg:       func() (opt[float64], error) { return ok3(col.AvgContext(ctx, sel, opts...)) },
		median:    func() (opt[uint64], error) { return ok3(col.MedianContext(ctx, sel, opts...)) },
		rank:      func(n uint64) (opt[uint64], error) { return ok3(col.RankContext(ctx, sel, n, opts...)) },
		quantile:  func(q float64) (opt[uint64], error) { return ok3(col.QuantileContext(ctx, sel, q, opts...)) },
		topK:      func(k int) ([]uint64, error) { return col.TopKContext(ctx, sel, k, opts...) },
		bottomK:   func(k int) ([]uint64, error) { return col.BottomKContext(ctx, sel, k, opts...) },
	}
}

// scalars runs the scalar battery of one source against the oracle's
// tally of its rows — and, when ranks is set, the rank arms: MEDIAN, the
// boundary ranks and the quantiles (the fuller sets when all is set).
func (r *run) scalars(route string, a aggs, t *tally, ranks, all bool) error {
	k := r.checker(route)
	v, err := a.countRows()
	k.check("COUNT(*)", v, err, t.rows)
	v, err = a.count()
	k.check("COUNT(a)", v, err, t.nnz)
	v, err = a.sum()
	k.sum("SUM", v, err, t.sum, nil, t.sum.lo)
	if a.plainSum != nil {
		v, err = a.plainSum()
		k.sum("SUM(plain)", v, err, t.sum, nil, t.sum.lo)
	}
	if a.sumCount != nil {
		sc, err := a.sumCount()
		k.sum("SUM,COUNT", sc, err, t.sum, nil, [2]uint64{t.sum.lo, t.nnz})
	}
	o, err := a.min()
	k.check("MIN", o, err, t.minOpt())
	o, err = a.max()
	k.check("MAX", o, err, t.maxOpt())
	f, err := a.avg()
	k.sum("AVG", f, err, t.sum, nil, t.avg())
	for n := 1; a.topK != nil && n <= 3; n += 2 {
		top, err := a.topK(n)
		c := oracle.New(t.vals)
		k.check(fmt.Sprintf("TOPK(%d)", n), top, err, c.TopK(c.All(), n))
		bottom, err := a.bottomK(n)
		k.check(fmt.Sprintf("BOTTOMK(%d)", n), bottom, err, c.BottomK(c.All(), n))
	}
	if !ranks {
		return k.err
	}
	o, err = a.median()
	k.check("MEDIAN", o, err, t.median())
	for _, n := range t.ranks(all) {
		o, err = a.rank(n)
		k.check(fmt.Sprintf("RANK(%d)", n), o, err, t.rank(n))
	}
	for _, q := range t.quantiles(all) {
		o, err = a.quantile(q)
		k.check(fmt.Sprintf("QUANTILE(%v)", q), o, err, t.quantile(q))
	}
	return k.err
}

// statement names the battery's scalar aggregates over column "a" — COUNT,
// SUM, AVG, MIN, MAX, MEDIAN and the quantiles — in one statement
// (AggsContext: one plan, one visit per live part) and checks every cell
// against the oracle's tally; an overflowing SUM or AVG fails its own cell
// only.
func (r *run) statement(t *tally) error {
	k := r.checker("aggs")
	aggs := []bpagg.GroupAgg{{Op: "COUNT"}, {Op: "COUNT", Column: "a"}, {Op: "SUM", Column: "a"}, {Op: "AVG", Column: "a"},
		{Op: "MIN", Column: "a"}, {Op: "MAX", Column: "a"}, {Op: "MEDIAN", Column: "a"}}
	for _, q := range t.quantiles(true) {
		aggs = append(aggs, bpagg.GroupAgg{Op: "QUANTILE", Column: "a", Quantile: q})
	}
	row, err := r.storeQuery().AggsContext(context.Background(), aggs)
	if err != nil {
		k.fail("AGGS", "unexpected error: %v", err)
		return k.err
	}
	k.check("COUNT(*)", row[0].Value, nil, t.rows)
	k.check("COUNT(a)", row[1].Value, nil, t.nnz)
	k.sum("SUM", [2]uint64{row[2].Value, row[2].Count}, row[2].Err, t.sum, nil, [2]uint64{t.sum.lo, t.nnz})
	k.sum("AVG", some(float64(row[3].Value)/float64(row[3].Count), row[3].Count > 0), row[3].Err, t.sum, nil, t.avg())
	for i, want := range []opt[uint64]{t.minOpt(), t.maxOpt(), t.median()} {
		k.check(aggs[4+i].Op, some(row[4+i].Value, row[4+i].OK), nil, want)
	}
	for i, a := range aggs[7:] {
		k.check(fmt.Sprintf("QUANTILE(%v)", a.Quantile), some(row[7+i].Value, row[7+i].OK), nil, t.quantile(a.Quantile))
	}
	return k.err
}

// groups runs the grouped battery of one GROUP BY: the tier the key-width
// rule names, keys, COUNT, SUM and AVG under the overflow contract, MIN,
// MAX and MEDIAN. A group whose measure rows are all NULL has no
// MIN/MAX/MEDIAN: those calls must fail, as documented.
func (r *run) groups(route string, g *bpagg.Grouped, err error, w *answers) error {
	k := r.checker(route)
	if err != nil {
		k.fail("GROUPBY", "unexpected error: %v", err)
		return k.err
	}
	if g.Strategy() != r.c.tier() {
		k.fail("STRATEGY", "engine chose %s tier, key-width rule says %s", g.Strategy(), r.c.tier())
		return k.err
	}
	k.check("KEYS", g.Keys(), nil, w.keys)
	ctx := context.Background()
	counts, err := g.CountContext(ctx)
	want := w.want()
	k.check("COUNT", counts, err, want.counts)
	ov, group := r.x.overflow(w)
	sums, err := g.SumContext(ctx, "a")
	k.sum("SUM", sums, err, ov, group, want.sums)
	avgs, err := g.AvgContext(ctx, "a")
	k.sum("AVG", avgs, err, ov, group, want.avgs)
	for _, a := range []struct {
		name string
		ctx  func(context.Context, string) ([]uint64, error)
		want []uint64
	}{{"MIN", g.MinContext, want.mins}, {"MAX", g.MaxContext, want.maxs}, {"MEDIAN", g.MedianContext, want.medians}} {
		vals, err := a.ctx(ctx, "a")
		if !want.empty {
			k.check(a.name, vals, err, a.want)
		} else if err == nil {
			k.fail(a.name, "a group has only NULLs; engine returned %v, want the empty-group error", vals)
		}
	}
	return k.err
}

// groupStatement names COUNT(*), COUNT, SUM, AVG, MIN, MAX, MEDIAN and
// the grouped quantiles over "a" in one GROUP BY (GroupByAggsContext: one
// pass per part, the parts' banks merged and each rank one radix descent
// over every part before it returns) and checks each group's Row against
// the oracle's tally of the group: a group whose measure rows are all NULL
// reads OK=false under MIN, MAX and the ranks, and an overflowing SUM or
// AVG cell carries an *OverflowError with its group's key.
func (r *run) groupStatement(route string, q interface {
	GroupByAggsContext(context.Context, []string, []bpagg.GroupAgg) (*bpagg.Grouped, error)
}, w *answers) error {
	k := r.checker(route)
	aggs := []bpagg.GroupAgg{{Op: "COUNT"}, {Op: "COUNT", Column: "a"}, {Op: "SUM", Column: "a"}, {Op: "AVG", Column: "a"},
		{Op: "MIN", Column: "a"}, {Op: "MAX", Column: "a"}, {Op: "MEDIAN", Column: "a"}}
	for _, q := range groupedQuantiles {
		aggs = append(aggs, bpagg.GroupAgg{Op: "QUANTILE", Column: "a", Quantile: q})
	}
	g, err := q.GroupByAggsContext(context.Background(), r.c.groupCols(), aggs)
	if err != nil {
		k.fail("GROUPBY", "unexpected error: %v", err)
		return k.err
	}
	if k.check("KEYS", g.Keys(), nil, w.keys); k.err != nil {
		return k.err
	}
	var counts, wantCounts [][2]uint64
	vals, wantVals := make([][]opt[uint64], len(aggs)-4), make([][]opt[uint64], len(aggs)-4)
	var row []bpagg.AggResult
	for i, t := range w.groups {
		row = g.Row(i, row)
		counts, wantCounts = append(counts, [2]uint64{row[0].Value, row[1].Value}), append(wantCounts, [2]uint64{t.rows, t.nnz})
		for j, name := range []string{"SUM", "AVG"} {
			c := row[2+j]
			k.sum(name, [2]uint64{c.Value, c.Count}, c.Err, t.sum, r.x.parts(w.keys[i]), [2]uint64{t.sum.lo, t.nnz})
		}
		want := []opt[uint64]{t.minOpt(), t.maxOpt(), t.median()}
		for _, qs := range w.want().quantileOks {
			want = append(want, qs[i])
		}
		for j, c := range row[4:] {
			vals[j], wantVals[j] = append(vals[j], some(c.Value, c.OK)), append(wantVals[j], want[j])
		}
	}
	k.check("COUNT(*),COUNT(a)", counts, nil, wantCounts)
	for j, a := range aggs[4:] {
		name := a.Op
		if a.Op == "QUANTILE" {
			name = fmt.Sprintf("QUANTILE(%v)", a.Quantile)
		}
		k.check(name, vals[j], nil, wantVals[j])
	}
	return k.err
}

// windows runs the window battery of one Window sweep against the
// oracle's tally of each window. SUM and AVG abort the sweep at the first
// window whose total exceeds uint64, with that window's exact total.
func (r *run) windows(route string, w *bpagg.WindowQuery, ws []*answers) error {
	k := r.checker(route)
	ctx := context.Background()
	var rows, sums []uint64
	var mins, maxs []opt[uint64]
	var avgs []opt[float64]
	var ov wide
	for _, a := range ws {
		t := &a.all
		rows, sums = append(rows, t.rows), append(sums, t.sum.lo)
		mins, maxs, avgs = append(mins, t.minOpt()), append(maxs, t.maxOpt()), append(avgs, t.avg())
		if ov.hi == 0 && t.sum.hi != 0 {
			ov = t.sum
		}
	}
	got, err := w.CountRowsContext(ctx)
	k.check("COUNT(*)", got, err, rows)
	got, err = w.SumContext(ctx, "a")
	k.sum("SUM", got, err, ov, nil, sums)
	vals, oks, err := w.MinContext(ctx, "a")
	k.check("MIN", zip(vals, oks), err, mins)
	vals, oks, err = w.MaxContext(ctx, "a")
	k.check("MAX", zip(vals, oks), err, maxs)
	fs, oks, err := w.AvgContext(ctx, "a")
	k.sum("AVG", zip(fs, oks), err, ov, nil, avgs)
	return k.err
}

// sqlOps spells the oracle's operators in sqlmini's AST.
var sqlOps = [...]sqlmini.CmpOp{oracle.EQ: sqlmini.OpEq, oracle.NE: sqlmini.OpNe, oracle.LT: sqlmini.OpLt,
	oracle.LE: sqlmini.OpLe, oracle.GT: sqlmini.OpGt, oracle.GE: sqlmini.OpGe,
	oracle.Between: sqlmini.OpBetween, oracle.In: sqlmini.OpIn}

// statements runs the case's statements through sqlmini.Execute on a catalog over
// the store — scalar unless the case is big, grouped when it has a key,
// and scalar again under a rownum BETWEEN of the last range probe — each
// one statement of every aggregate (a big case's without MEDIAN and
// QUANTILE), split in two when its SUM overflows — and
// compares each with the oracle's answers rendered by the catalog's own
// formatters. Every column is uint(k); a constant at or past 2^53, which
// sqlmini's float64 literals cannot carry exactly, leaves the case out.
func (r *run) statements() error {
	var where []sqlmini.Condition
	for _, ps := range r.c.Preds {
		cond, lits := sqlmini.Condition{Column: ps.Col, Op: sqlOps[ps.Pred.Op]}, []uint64{ps.Pred.A}
		switch ps.Pred.Op {
		case oracle.Between:
			lits = append(lits, ps.Pred.B)
		case oracle.In:
			lits = ps.Pred.List
		}
		for _, v := range lits {
			if v >= 1<<53 {
				return nil
			}
			cond.Lits = append(cond.Lits, sqlmini.Literal{Num: float64(v)})
		}
		where = append(where, cond)
	}
	cat := &catalog.Catalog{Sharded: r.s.st}
	for _, cl := range r.c.columns() {
		cat.Specs = append(cat.Specs, catalog.Spec{Name: cl.name, Kind: catalog.Uint, Layout: cl.layout, Bits: cl.k})
	}
	exprs := []sqlmini.SelectExpr{{Func: sqlmini.Sum, Column: "a"}, {Func: sqlmini.Avg, Column: "a"},
		{Func: sqlmini.CountStar}, {Func: sqlmini.Count, Column: "a"}, {Func: sqlmini.Min, Column: "a"},
		{Func: sqlmini.Max, Column: "a"}, {Func: sqlmini.Median, Column: "a"}, {Func: sqlmini.Quantile, Column: "a", Arg: 0.9}}
	type shape struct {
		name  string
		where []sqlmini.Condition
		by    []string
		a     *answers
	}
	var shapes []shape
	if r.c.big {
		exprs = exprs[:6] // its grouped statement already descends every group
	} else {
		shapes = append(shapes, shape{"", where, nil, r.x.whole})
	}
	if r.c.G != nil {
		shapes = append(shapes, shape{fmt.Sprint(" GROUP BY ", r.c.groupCols()), where, r.c.groupCols(), r.x.whole})
	}
	if n := len(r.c.Ranges); n > 0 && !r.c.big {
		// The last probe, an interior one: the first is the whole table,
		// whose row mask would pass a statement that dropped it.
		p := r.c.Ranges[n-1]
		rownum := sqlmini.Condition{Column: "rownum", Op: sqlmini.OpBetween,
			Lits: []sqlmini.Literal{{Num: float64(p[0])}, {Num: float64(p[1] - 1)}}}
		shapes = append(shapes, shape{fmt.Sprintf(" rows [%d,%d)", p[0], p[1]), append(slices.Clone(where), rownum), nil, r.x.ranges[n-1]})
	}
	k := r.checker("sql")
	for _, sh := range shapes {
		ov, group := sh.a.all.sum, []uint64(nil)
		if sh.by != nil {
			ov, group = r.x.overflow(sh.a)
		}
		stmts := [][]sqlmini.SelectExpr{exprs}
		if ov.hi != 0 { // the overflowing SUM fails its statement: the rest runs alone
			stmts = [][]sqlmini.SelectExpr{exprs[:2], exprs[2:]}
		}
		for si, sel := range stmts {
			var want [][]string
			if sh.by == nil {
				want = append(want, render(cat, nil, &sh.a.all, sel))
			} else {
				for i, t := range sh.a.groups {
					want = append(want, render(cat, r.x.parts(sh.a.keys[i]), t, sel))
				}
			}
			if si > 0 {
				ov, group = wide{}, nil
			}
			res, err := sqlmini.Execute(cat, &sqlmini.Query{Selects: sel, Where: sh.where, GroupBy: sh.by}, sqlmini.ExecOptions{Threads: r.th})
			var rows [][]string
			if err == nil {
				rows = res.Rows
			}
			k.sum(fmt.Sprintf("%d selects%s", len(sel), sh.name), rows, err, ov, group, want)
		}
	}
	return k.err
}

// render is the row sqlmini prints for one tally: the key parts, then one
// cell per SELECT expression.
func render(cat *catalog.Catalog, parts []uint64, t *tally, sel []sqlmini.SelectExpr) []string {
	var row []string
	for i, p := range parts {
		row = append(row, cat.FormatValue([]string{"g", "g2"}[i], p))
	}
	value := func(o opt[uint64]) string {
		if !o.ok {
			return "NULL"
		}
		return cat.FormatValue("a", o.v)
	}
	cells := map[sqlmini.AggFunc]string{sqlmini.CountStar: strconv.FormatUint(t.rows, 10),
		sqlmini.Count: strconv.FormatUint(t.nnz, 10), sqlmini.Sum: cat.FormatSum("a", t.sum.lo, t.nnz),
		sqlmini.Avg: cat.FormatAvg("a", t.sum.lo, t.nnz), sqlmini.Min: value(t.minOpt()), sqlmini.Max: value(t.maxOpt())}
	for _, s := range sel {
		switch s.Func {
		case sqlmini.Median:
			cells[s.Func] = value(t.median())
		case sqlmini.Quantile:
			cells[s.Func] = value(t.quantile(s.Arg))
		}
		row = append(row, cells[s.Func])
	}
	return row
}

// checker keeps the first divergence among one route's cells.
type checker struct {
	r     *run
	route string
	err   error
}

func (r *run) checker(route string) *checker { return &checker{r: r, route: route} }

// fail records a divergence unless one is already recorded.
func (k *checker) fail(agg, format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf("case %s [store=%s route=%s threads=%d] %s: %s",
			k.r.c.Name, k.r.s.name, k.route, k.r.th, agg, fmt.Sprintf(format, args...))
	}
}

// check demands the answer want and no error. Answers compare deeply, and
// a nil and an empty slice agree.
func (k *checker) check(agg string, got any, err error, want any) {
	switch {
	case err != nil:
		k.fail(agg, "unexpected error: %v", err)
	case !reflect.DeepEqual(got, want) && !(empty(got) && empty(want)):
		k.fail(agg, "engine=%v oracle=%v", got, want)
	}
}

func empty(v any) bool {
	r := reflect.ValueOf(v)
	return r.Kind() == reflect.Slice && r.Len() == 0
}

// sum is check under the overflow contract, for every SUM and AVG: when
// the exact total w exceeds uint64 the engine must return an
// *OverflowError carrying it — and, for a grouped aggregate, group, the
// first overflowing group's key parts in key order.
func (k *checker) sum(agg string, got any, err error, w wide, group []uint64, want any) {
	var ov *bpagg.OverflowError
	switch {
	case w.hi == 0:
		k.check(agg, got, err, want)
	case !errors.As(err, &ov):
		k.fail(agg, "true sum %d·2^64+%d (group %v) overflows uint64; engine returned %v err=%v, want *bpagg.OverflowError",
			w.hi, w.lo, group, got, err)
	case ov.Hi != w.hi || ov.Lo != w.lo || !slices.Equal(ov.Group, group):
		k.fail(agg, "OverflowError reports %d·2^64+%d in group %v, true sum is %d·2^64+%d in group %v",
			ov.Hi, ov.Lo, ov.Group, w.hi, w.lo, group)
	}
}

// try converts a panic from the engine's one plain aggregate (Sum) into
// an error, so a cell can compare it with what the oracle expects.
func try[T any](f func() T) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			if err, _ = p.(error); err == nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}
	}()
	return f(), nil
}

func ok3[T comparable](v T, ok bool, err error) (opt[T], error) { return some(v, ok), err }

// zip pairs per-group or per-window values with their found flags.
func zip[T comparable](vals []T, oks []bool) []opt[T] {
	out := make([]opt[T], len(oks))
	for i, ok := range oks {
		out[i] = some(vals[i], ok)
	}
	return out
}
