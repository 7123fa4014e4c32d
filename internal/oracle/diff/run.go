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
// divergence; an engine panic outside the plain methods' contract is one.
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
// on each scalar route, the Range probes and Window shapes, the grouped
// battery and the grouped Ok arms, and SQL. A secondary thread count
// reruns a subset: thread sensitivity lives in the kernels the primary
// count already swept probe by probe.
func (r *run) routes() []func() error {
	x, sharded := r.x, r.s.flat == nil
	var out []func() error
	add := func(f func() error) { out = append(out, f) }
	whole := queryAggs(func() query { return r.query(nil) }, true)
	switch {
	case r.c.big:
	case sharded:
		add(func() error { return r.scalars("query", whole, &x.whole.all, true, true) })
	default:
		add(func() error { return r.scalars("fused", whole, &x.whole.all, true, true) })
		add(func() error {
			opts := []bpagg.ExecOption{bpagg.Parallel(r.th)}
			sel, col := r.flatQuery().Selection(), r.s.flat.Column("a")
			err := r.scalars("twophase", columnAggs(col, sel, opts, true), &x.whole.all, true, true)
			if err == nil && r.first {
				err = r.scalars("recon", columnAggs(col, sel, append(opts, bpagg.Access(bpagg.Reconstruct)), false), &x.whole.all, true, true)
			}
			return err
		})
	}
	for i, p := range r.c.Ranges {
		if !r.first && i%3 != 0 {
			continue
		}
		route := fmt.Sprintf("range[%d,%d)", p[0], p[1])
		ranks := i%3 == 0 && (!sharded || r.first && i == 0)
		add(func() error {
			return r.scalars(route, queryAggs(func() query { return r.query(&p) }, false), &x.ranges[i].all, ranks, false)
		})
		if r.c.G != nil && i%3 == 0 {
			add(func() error {
				g, err := r.group(&p)
				return r.groups("group-"+route, g, err, x.ranges[i], false)
			})
		}
	}
	for i, w := range windowShapes {
		if len(r.c.Ranges) == 0 || i > 0 && (!r.first || sharded && i == 1) {
			continue
		}
		add(func() error { return r.windows(fmt.Sprintf("window w%d/s%d", w[0], w[1]), r.window(w), x.windows[i]) })
	}
	for _, route := range []string{"group-lazy", "group-materialized"} {
		if r.c.G == nil || sharded {
			break
		}
		add(func() error {
			g, err := try(func() *bpagg.Grouped {
				q := r.flatQuery()
				if route == "group-materialized" {
					q.Selection()
				}
				return q.GroupBy(r.c.groupCols()...)
			})
			return r.groups(route, g, err, x.whole, true)
		})
	}
	if r.c.G != nil {
		add(func() error {
			g, err := try(func() *bpagg.ShardedGrouped { return r.shardedQuery().GroupBy(r.c.groupCols()...) })
			if sharded {
				if err := r.groups("group", g, err, x.whole, true); err != nil {
					return err
				}
			}
			return r.okArms(g, err, x.whole)
		})
	}
	if r.sql {
		add(r.statements)
	}
	return out
}

// flatQuery and shardedQuery build the case's query on the store.
func (r *run) flatQuery() *bpagg.Query {
	return where(r.s.flat.Query().With(bpagg.Parallel(r.th)), r.c.Preds)
}

func (r *run) shardedQuery() *bpagg.ShardedQuery {
	return where(r.s.st.Query().With(bpagg.Parallel(r.th)), r.c.Preds)
}

func where[Q interface {
	Where(string, bpagg.Predicate) Q
}](q Q, preds []PredSpec) Q {
	for _, ps := range preds {
		q = q.Where(ps.Col, enginePred(ps.Pred))
	}
	return q
}

// query is the store's query, cut to the row range p when p is set.
func (r *run) query(p *[2]int) query {
	switch {
	case r.s.flat != nil && p != nil:
		return r.flatQuery().Range(p[0], p[1])
	case r.s.flat != nil:
		return r.flatQuery()
	case p != nil:
		return r.shardedQuery().Range(p[0], p[1])
	}
	return r.shardedQuery()
}

// group is GROUP BY over the store's query cut to the row range p.
func (r *run) group(p *[2]int) (groups, error) {
	ctx := context.Background()
	if r.s.flat != nil {
		return r.flatQuery().Range(p[0], p[1]).GroupByContext(ctx, r.c.groupCols()...)
	}
	return r.shardedQuery().Range(p[0], p[1]).GroupByContext(ctx, r.c.groupCols()...)
}

// window is the store's Window sweep of one {size, step} shape.
func (r *run) window(w [2]int) windowed {
	if r.s.flat != nil {
		return r.flatQuery().Window(w[0], w[1])
	}
	return r.shardedQuery().Window(w[0], w[1])
}

// query is the scalar method set *Query, *ShardedQuery, *RangeQuery and
// *ShardedRangeQuery share.
type query interface {
	CountRows() uint64
	Count(string) uint64
	Sum(string) uint64
	Min(string) (uint64, bool)
	Max(string) (uint64, bool)
	Avg(string) (float64, bool)
	Median(string) (uint64, bool)
	Rank(string, uint64) (uint64, bool)
	Quantile(string, float64) (uint64, bool)
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

// groups is the grouped method set *Grouped and *ShardedGrouped share.
type groups interface {
	Strategy() bpagg.GroupStrategy
	Keys() []uint64
	Count() []uint64
	Sum(string) []uint64
	Min(string) []uint64
	Max(string) []uint64
	Median(string) []uint64
	Avg(string) []float64
	CountContext(context.Context) ([]uint64, error)
	SumContext(context.Context, string) ([]uint64, error)
	MinContext(context.Context, string) ([]uint64, error)
	MaxContext(context.Context, string) ([]uint64, error)
	MedianContext(context.Context, string) ([]uint64, error)
	AvgContext(context.Context, string) ([]float64, error)
}

// windowed is the method set *WindowQuery and *ShardedWindowQuery share.
type windowed interface {
	CountRowsContext(context.Context) ([]uint64, error)
	SumContext(context.Context, string) ([]uint64, error)
	MinContext(context.Context, string) ([]uint64, []bool, error)
	MaxContext(context.Context, string) ([]uint64, []bool, error)
	AvgContext(context.Context, string) ([]float64, []bool, error)
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
// aggregate, so each runs on the route the planner picks for it alone;
// plain takes the panicking methods over the …Context ones.
func queryAggs(mk func() query, plain bool) aggs {
	ctx := context.Background()
	a := aggs{
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
	if plain {
		a.countRows = func() (uint64, error) { return try(func() uint64 { return mk().CountRows() }) }
		a.count = func() (uint64, error) { return try(func() uint64 { return mk().Count("a") }) }
		a.sum, a.plainSum = a.plainSum, nil
		a.min = func() (opt[uint64], error) { return try(func() opt[uint64] { return some(mk().Min("a")) }) }
		a.max = func() (opt[uint64], error) { return try(func() opt[uint64] { return some(mk().Max("a")) }) }
		a.avg = func() (opt[float64], error) { return try(func() opt[float64] { return some(mk().Avg("a")) }) }
		a.median = func() (opt[uint64], error) { return try(func() opt[uint64] { return some(mk().Median("a")) }) }
		a.rank = func(n uint64) (opt[uint64], error) {
			return try(func() opt[uint64] { return some(mk().Rank("a", n)) })
		}
		a.quantile = func(q float64) (opt[uint64], error) {
			return try(func() opt[uint64] { return some(mk().Quantile("a", q)) })
		}
	}
	return a
}

// columnAggs is the battery's view of the two-phase route — or, with
// Reconstruct among opts, the reconstruction baseline: the query's
// selection materialized once, every aggregate a *Column call over it.
func columnAggs(col *bpagg.Column, sel *bpagg.Bitmap, opts []bpagg.ExecOption, topK bool) aggs {
	ctx := context.Background()
	a := aggs{
		countRows: func() (uint64, error) { return uint64(sel.Count()), nil },
		count:     func() (uint64, error) { return col.CountContext(ctx, sel) },
		sum:       func() (uint64, error) { return col.SumContext(ctx, sel, opts...) },
		plainSum:  func() (uint64, error) { return try(func() uint64 { return col.Sum(sel, opts...) }) },
		min:       func() (opt[uint64], error) { return ok3(col.MinContext(ctx, sel, opts...)) },
		max:       func() (opt[uint64], error) { return ok3(col.MaxContext(ctx, sel, opts...)) },
		avg:       func() (opt[float64], error) { return ok3(col.AvgContext(ctx, sel, opts...)) },
		median:    func() (opt[uint64], error) { return ok3(col.MedianContext(ctx, sel, opts...)) },
		rank:      func(n uint64) (opt[uint64], error) { return ok3(col.RankContext(ctx, sel, n, opts...)) },
		quantile:  func(q float64) (opt[uint64], error) { return ok3(col.QuantileContext(ctx, sel, q, opts...)) },
	}
	if topK {
		a.topK = func(k int) ([]uint64, error) { return try(func() []uint64 { return col.TopK(sel, k, opts...) }) }
		a.bottomK = func(k int) ([]uint64, error) { return try(func() []uint64 { return col.BottomK(sel, k, opts...) }) }
	}
	return a
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

// groups runs the grouped battery of one GROUP BY: the tier the key-width
// rule names, keys, COUNT, SUM and AVG under the overflow contract, MIN,
// MAX and MEDIAN. A group whose measure rows are all NULL has no
// MIN/MAX/MEDIAN: those calls must fail, as documented. plain takes the
// panicking methods over the …Context ones.
func (r *run) groups(route string, g groups, err error, w *answers, plain bool) error {
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
	counts, err := pick(plain, func(string) []uint64 { return g.Count() },
		func(ctx context.Context, _ string) ([]uint64, error) { return g.CountContext(ctx) })
	want := w.want()
	k.check("COUNT", counts, err, want.counts)
	ov, group := r.x.overflow(w)
	sums, err := pick(plain, g.Sum, g.SumContext)
	k.sum("SUM", sums, err, ov, group, want.sums)
	avgs, err := pick(plain, g.Avg, g.AvgContext)
	k.sum("AVG", avgs, err, ov, group, want.avgs)
	for _, a := range []struct {
		name  string
		plain func(string) []uint64
		ctx   func(context.Context, string) ([]uint64, error)
		want  []uint64
	}{{"MIN", g.Min, g.MinContext, want.mins}, {"MAX", g.Max, g.MaxContext, want.maxs}, {"MEDIAN", g.Median, g.MedianContext, want.medians}} {
		vals, err := pick(plain, a.plain, a.ctx)
		if !want.empty {
			k.check(a.name, vals, err, a.want)
		} else if err == nil {
			k.fail(a.name, "a group has only NULLs; engine returned %v, want the empty-group error", vals)
		}
	}
	return k.err
}

// okArms runs the NULL-tolerant grouped rank arms, one radix descent over
// every shard of the store (a flat table's one): a group whose measure
// rows are all NULL answers ok=false, every other its oracle value.
func (r *run) okArms(g *bpagg.ShardedGrouped, err error, w *answers) error {
	k := r.checker("group-ok")
	if err != nil {
		k.fail("GROUPBY", "unexpected error: %v", err)
		return k.err
	}
	ctx := context.Background()
	k.check("KEYS", g.Keys(), nil, w.keys)
	vals, oks, err := g.MedianOkContext(ctx, "a")
	k.check("MEDIAN-OK", zip(vals, oks), err, w.want().medianOks)
	for i, q := range groupedQuantiles {
		vals, oks, err := g.QuantileOkContext(ctx, "a", q)
		k.check(fmt.Sprintf("QUANTILE-OK(%v)", q), zip(vals, oks), err, w.want().quantileOks[i])
	}
	return k.err
}

// windows runs the window battery of one Window sweep against the
// oracle's tally of each window. SUM and AVG abort the sweep at the first
// window whose total exceeds uint64, with that window's exact total.
func (r *run) windows(route string, w windowed, ws []*answers) error {
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
// each one statement of every aggregate (a big case's without MEDIAN and
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
	var bys [][]string
	if r.c.big {
		exprs = exprs[:6] // its Ok arms already descend every group
	} else {
		bys = append(bys, nil)
	}
	if r.c.G != nil {
		bys = append(bys, r.c.groupCols())
	}
	k, w := r.checker("sql"), r.x.whole
	for _, by := range bys {
		ov, group := w.all.sum, []uint64(nil)
		if by != nil {
			ov, group = r.x.overflow(w)
		}
		stmts := [][]sqlmini.SelectExpr{exprs}
		if ov.hi != 0 { // the overflowing SUM fails its statement: the rest runs alone
			stmts = [][]sqlmini.SelectExpr{exprs[:2], exprs[2:]}
		}
		for si, sel := range stmts {
			var want [][]string
			if by == nil {
				want = append(want, render(cat, nil, &w.all, sel))
			} else {
				for i, t := range w.groups {
					want = append(want, render(cat, r.x.parts(w.keys[i]), t, sel))
				}
			}
			if si > 0 {
				ov, group = wide{}, nil
			}
			res, err := sqlmini.Execute(cat, &sqlmini.Query{Selects: sel, Where: where, GroupBy: by}, sqlmini.ExecOptions{Threads: r.th})
			var rows [][]string
			if err == nil {
				rows = res.Rows
			}
			k.sum(fmt.Sprintf("%d selects GROUP BY %v", len(sel), by), rows, err, ov, group, want)
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

// try converts a panic from the engine's plain (non-Context) API into an
// error, so a cell can compare it with what the oracle expects.
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

// pick calls the plain or the …Context form of a grouped aggregate.
func pick[T any](plain bool, p func(string) T, c func(context.Context, string) (T, error)) (T, error) {
	if plain {
		return try(func() T { return p("a") })
	}
	return c(context.Background(), "a")
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
