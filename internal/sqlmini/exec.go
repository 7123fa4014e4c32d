package sqlmini

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"bpagg"
	"bpagg/internal/catalog"
)

// Execution model (DESIGN.md §17). There is one executor over one store:
// the catalog's partitioned store, of which a flat table is the one-shard
// case. A statement is bound (select list checked, rownum peeled off,
// every other conjunct translated to an engine predicate), turned into
// one bpagg.ShardedQuery, and answered by one store call — one result row
// (AggsContext) or one row per group (GroupByAggsContext) — over either
// that query or its restriction to a row range; the statement names each
// aggregate once, and the store answers them all in one plan and one
// fan-out. Which kernels run (fused or two-phase, direct or hash
// partition, index-served range) is the engine's decision; this package
// asks it (ShardedQuery.Fused, ShardedGrouped.Strategy) only to explain
// it, and never re-derives it.

// Result is an executed query: one row when ungrouped, one row per group
// otherwise. Cells are rendered in each column's domain (decimals with
// their scale, dictionary strings as text).
type Result struct {
	Headers []string
	Rows    [][]string
}

// ExecOptions forwards execution knobs to the aggregates.
type ExecOptions struct {
	Threads int
	// Auto lets each two-phase aggregate pick between the bit-parallel
	// kernels and the reconstruction baseline from the realized
	// selectivity (the paper's optimizer policy). Aggregates that fuse
	// with their scans do so regardless — there is no realized
	// selectivity to consult before the scan.
	Auto bool
	// Stats, when non-nil, receives execution statistics from every scan
	// and aggregate the query runs.
	Stats *bpagg.StatsCollector
}

// Execute runs a parsed query against a catalog.
func Execute(cat *catalog.Catalog, q *Query, o ExecOptions) (*Result, error) {
	return ExecuteContext(context.Background(), cat, q, o)
}

// ExecuteContext runs a parsed query against a catalog, honoring ctx:
// cancellation and deadlines propagate into the aggregation workers
// (checked between segment blocks and at every MEDIAN radix
// rendezvous), and the first context error aborts the query.
//
// This is a trust boundary for query text and programmatically built
// ASTs: malformed input — unknown columns, out-of-range quantiles —
// returns an error, never panics. As defense in depth, any panic that
// does escape the engine is recovered into an error here so one bad
// query cannot take down a serving process.
func ExecuteContext(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sql: internal error executing query: %v", r)
		}
	}()
	if q.Explain {
		// EXPLAIN ANALYZE executes fully but returns the plan tree,
		// rendered one stage per row so the CLI and REPL print it with
		// the machinery they already have.
		ex, err := ExplainAnalyzeContext(ctx, cat, q, o)
		if err != nil {
			return nil, err
		}
		out := &Result{Headers: []string{"QUERY PLAN"}}
		for _, line := range ex.Lines(false) {
			out.Rows = append(out.Rows, []string{line})
		}
		return out, nil
	}
	b, err := bind(cat, q)
	if err != nil {
		return nil, err
	}
	sq, err := buildQuery(cat, b.preds, o, o.Stats)
	if err != nil {
		return nil, err
	}
	rows, _, err := b.run(ctx, cat, q, sq)
	if err != nil {
		return nil, err
	}
	return &Result{Headers: headers(q), Rows: rows}, nil
}

// bound is a statement after binding: the row-position range peeled off
// the WHERE list (nil when none), the conditions left over, and their
// translation into engine predicates.
type bound struct {
	rng   *rowRange
	rest  []Condition
	preds []boundPred
}

// bind checks the statement against the schema and translates its WHERE
// list. Everything it rejects is the query's fault (*BadQueryError);
// errors past this point come from the engine (deadline, cancel,
// overflow, cardinality) and propagate untyped, so a timeout is never
// misclassified as a bad request.
func bind(cat *catalog.Catalog, q *Query) (b bound, err error) {
	if err := validateSelects(cat, q); err != nil {
		return b, err
	}
	if b.rng, b.rest, err = splitRownum(cat, q.Where); err != nil {
		return b, err
	}
	if b.preds, err = bindPreds(cat, b.rest); err != nil {
		return b, err
	}
	for _, name := range q.GroupBy {
		if cat.Spec(name) == nil {
			return b, badf("sql: unknown GROUP BY column %q", name)
		}
	}
	return b, nil
}

// validateSelects checks the select list against the schema. Aggregate
// codes and quantile arguments are re-checked because a Query need not
// come from Parse.
func validateSelects(cat *catalog.Catalog, q *Query) error {
	for _, sel := range q.Selects {
		if sel.Func < CountStar || sel.Func > Quantile {
			return badf("sql: unsupported aggregate %v", sel.Func)
		}
		if sel.Func == CountStar {
			continue
		}
		if cat.Spec(sel.Column) == nil {
			return badf("sql: unknown column %q", sel.Column)
		}
		if (sel.Func == Sum || sel.Func == Avg) && !cat.Summable(sel.Column) {
			return badf("sql: %s over string column %q", sel.Func, sel.Column)
		}
		if sel.Func == Quantile && (sel.Arg < 0 || sel.Arg > 1 || sel.Arg != sel.Arg) {
			return badf("sql: quantile %g outside [0,1]", sel.Arg)
		}
	}
	return nil
}

func headers(q *Query) []string {
	hs := make([]string, 0, len(q.GroupBy)+len(q.Selects))
	hs = append(hs, q.GroupBy...)
	for _, s := range q.Selects {
		hs = append(hs, s.Label())
	}
	return hs
}

// buildQuery assembles the store query for the translated conjuncts,
// directing its stats into the given collector (nil for none).
func buildQuery(cat *catalog.Catalog, preds []boundPred, o ExecOptions, stats *bpagg.StatsCollector) (*bpagg.ShardedQuery, error) {
	sq := cat.Store().Query().WithStatsInto(stats)
	if o.Threads > 1 {
		sq.With(bpagg.Parallel(o.Threads))
	}
	if o.Auto {
		sq.With(bpagg.Access(bpagg.Auto))
	}
	for _, bp := range preds {
		if _, err := sq.WhereErr(bp.column, bp.pred); err != nil {
			return nil, badQuery(err)
		}
	}
	return sq, nil
}

// source is what a statement aggregates over: the store query, or its
// restriction to a row range.
type source interface {
	AggsContext(ctx context.Context, aggs []bpagg.GroupAgg) ([]bpagg.AggResult, error)
	GroupByAggsContext(ctx context.Context, columns []string, aggs []bpagg.GroupAgg) (*bpagg.ShardedGrouped, error)
}

// run executes the bound statement on sq: its aggregates, named once
// each, go to the store in one call, which answers them in one plan and
// one fan-out. A grouped statement also reports the tier that produced
// its rows, which EXPLAIN ANALYZE prints.
func (b bound) run(ctx context.Context, cat *catalog.Catalog, q *Query, sq *bpagg.ShardedQuery) ([][]string, bpagg.GroupStrategy, error) {
	var src source = sq
	if b.rng != nil {
		src = sq.Range(b.rng.lo, b.rng.hi)
	}
	aggs := appendAggs(nil, q.Selects)
	if len(q.GroupBy) != 0 {
		g, err := src.GroupByAggsContext(ctx, q.GroupBy, aggs)
		if err != nil {
			return nil, 0, err
		}
		rows, err := groupedRows(ctx, cat, q, g)
		return rows, g.Strategy(), err
	}
	cells, err := src.AggsContext(ctx, aggs)
	if err != nil {
		return nil, 0, err
	}
	row, err := renderRow(cat, q.Selects, aggs, cells)
	return [][]string{row}, 0, err
}

// aggOf names a SELECT expression's aggregate for the store; COUNT(*) is
// COUNT without a column.
func aggOf(s SelectExpr) bpagg.GroupAgg {
	if s.Func == CountStar {
		return bpagg.GroupAgg{Op: "COUNT"}
	}
	return bpagg.GroupAgg{Op: s.Func.String(), Column: s.Column, Quantile: s.Arg}
}

// appendAggs adds each SELECT expression's aggregate to aggs unless it is
// named there already, so the store runs it once.
func appendAggs(aggs []bpagg.GroupAgg, selects []SelectExpr) []bpagg.GroupAgg {
	aggs = slices.Grow(aggs, len(selects))
	for _, s := range selects {
		if a := aggOf(s); !slices.Contains(aggs, a) {
			aggs = append(aggs, a)
		}
	}
	return aggs
}

// renderRow renders one cell per SELECT expression from the answers the
// store gave aggs; the first cell that failed (an overflowing SUM) fails
// the row.
func renderRow(cat *catalog.Catalog, selects []SelectExpr, aggs []bpagg.GroupAgg, cells []bpagg.AggResult) ([]string, error) {
	row := make([]string, len(selects))
	for i, s := range selects {
		c := cells[slices.Index(aggs, aggOf(s))]
		switch {
		case c.Err != nil:
			return nil, c.Err
		case s.Func == CountStar || s.Func == Count:
			row[i] = strconv.FormatUint(c.Value, 10)
		case s.Func == Sum:
			row[i] = cat.FormatSum(s.Column, c.Value, c.Count)
		case s.Func == Avg:
			row[i] = cat.FormatAvg(s.Column, c.Value, c.Count)
		default:
			row[i] = formatOpt(cat, s.Column, c.Value, c.OK)
		}
	}
	return row, nil
}

// groupedRows renders one row per group: the key parts, then one column
// of cells per SELECT expression from the bulk per-group aggregates. The
// NULL-tolerant Ok variants render a group whose measure values are all
// NULL as NULL. No group is no row.
func groupedRows(ctx context.Context, cat *catalog.Catalog, q *Query, g *bpagg.ShardedGrouped) ([][]string, error) {
	if g.Len() == 0 {
		return nil, nil
	}
	counts, err := g.CountContext(ctx)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, g.Len())
	for i := range rows {
		rows[i] = make([]string, 0, len(q.GroupBy)+len(q.Selects))
		for j, part := range g.KeyParts(i) {
			rows[i] = append(rows[i], cat.FormatValue(q.GroupBy[j], part))
		}
	}
	for _, s := range q.Selects {
		var vals, nn []uint64
		var oks []bool
		var err error
		switch s.Func {
		case CountStar:
			vals = counts
		case Count:
			vals, err = g.NonNullCountContext(ctx, s.Column)
		case Sum, Avg:
			if vals, err = g.SumContext(ctx, s.Column); err == nil {
				nn, err = g.NonNullCountContext(ctx, s.Column)
			}
		case Min:
			vals, oks, err = g.MinOkContext(ctx, s.Column)
		case Max:
			vals, oks, err = g.MaxOkContext(ctx, s.Column)
		case Median:
			vals, oks, err = g.MedianOkContext(ctx, s.Column)
		case Quantile:
			vals, oks, err = g.QuantileOkContext(ctx, s.Column, s.Arg)
		}
		if err != nil {
			return nil, err
		}
		for i := range rows {
			var cell string
			switch {
			case s.Func == Sum:
				cell = cat.FormatSum(s.Column, vals[i], nn[i])
			case s.Func == Avg:
				cell = cat.FormatAvg(s.Column, vals[i], nn[i])
			case oks != nil:
				cell = formatOpt(cat, s.Column, vals[i], oks[i])
			default:
				cell = strconv.FormatUint(vals[i], 10)
			}
			rows[i] = append(rows[i], cell)
		}
	}
	return rows, nil
}

func formatOpt(cat *catalog.Catalog, col string, code uint64, ok bool) string {
	if !ok {
		return "NULL"
	}
	return cat.FormatValue(col, code)
}

// boundPred is one WHERE conjunct translated into engine predicate space.
type boundPred struct {
	column string
	pred   bpagg.Predicate
}

// bindPreds translates the conjunctive condition list into engine
// predicates, literals going into code space with floor/ceil semantics so
// unrepresentable constants (10.005 on a cent-scaled column, out-of-range
// values) select exactly the right rows. BETWEEN becomes its two bounds;
// an IN-list binds each member exactly, and members no stored value can
// equal drop out of the list. Conditions that statically match everything
// or nothing stay predicates with those semantics: "nothing" compares
// below code zero, so shard bounds and zone maps prune without touching
// data.
func bindPreds(cat *catalog.Catalog, conds []Condition) ([]boundPred, error) {
	out := make([]boundPred, 0, len(conds))
	for _, cond := range conds {
		if cat.Spec(cond.Column) == nil {
			return nil, badf("sql: unknown column %q", cond.Column)
		}
		switch cond.Op {
		case OpIn:
			codes := make([]uint64, 0, len(cond.Lits))
			for _, lit := range cond.Lits {
				code, ok, err := exactCode(cat, cond.Column, lit)
				if err != nil {
					return nil, badQuery(err)
				}
				if ok {
					codes = append(codes, code)
				}
			}
			out = append(out, boundPred{cond.Column, bpagg.In(codes...)})
		case OpBetween:
			lo, err := bindOnePred(cat, cond.Column, OpGe, cond.Lits[0])
			if err != nil {
				return nil, badQuery(err)
			}
			hi, err := bindOnePred(cat, cond.Column, OpLe, cond.Lits[1])
			if err != nil {
				return nil, badQuery(err)
			}
			out = append(out, boundPred{cond.Column, lo}, boundPred{cond.Column, hi})
		default:
			p, err := bindOnePred(cat, cond.Column, cond.Op, cond.Lits[0])
			if err != nil {
				return nil, badQuery(err)
			}
			out = append(out, boundPred{cond.Column, p})
		}
	}
	return out, nil
}

// exactCode translates a literal that has to equal a stored value; ok is
// false when none can (a string absent from the dictionary, a number
// outside the domain or between two codes).
func exactCode(cat *catalog.Catalog, column string, lit Literal) (code uint64, ok bool, err error) {
	if lit.IsString {
		return cat.StrToCode(column, lit.Str)
	}
	cr, err := cat.NumToCode(column, lit.Num)
	return cr.Floor, err == nil && !cr.Below && !cr.Above && cr.Exact, err
}

// bindOnePred translates a single-literal comparison.
func bindOnePred(cat *catalog.Catalog, column string, op CmpOp, lit Literal) (bpagg.Predicate, error) {
	none := bpagg.Less(0) // every code is >= 0
	all := func() (bpagg.Predicate, error) {
		max, err := cat.MaxCode(column)
		return bpagg.LessEq(max), err
	}
	if op == OpEq || op == OpNe {
		code, ok, err := exactCode(cat, column, lit)
		switch {
		case err != nil:
			return none, err
		case op == OpEq && ok:
			return bpagg.Equal(code), nil
		case op == OpEq:
			return none, nil
		case ok:
			return bpagg.NotEqual(code), nil
		}
		return all()
	}
	if lit.IsString {
		if _, _, err := cat.StrToCode(column, lit.Str); err != nil {
			return none, err
		}
		return none, fmt.Errorf("sql: only = and != apply to string column %q", column)
	}
	cr, err := cat.NumToCode(column, lit.Num)
	if err != nil {
		return none, err
	}
	switch op {
	case OpLt, OpLe:
		switch {
		case cr.Below:
			return none, nil
		case cr.Above:
			return all()
		case op == OpLt:
			// v < L <=> code < ceil(L) when L is not a code, code < L otherwise.
			return bpagg.Less(cr.Ceil), nil
		}
		return bpagg.LessEq(cr.Floor), nil
	case OpGt, OpGe:
		switch {
		case cr.Above:
			return none, nil
		case cr.Below:
			return all()
		case op == OpGt:
			return bpagg.Greater(cr.Floor), nil
		}
		return bpagg.GreaterEq(cr.Ceil), nil
	}
	return none, fmt.Errorf("sql: unsupported operator %d", int(op))
}
