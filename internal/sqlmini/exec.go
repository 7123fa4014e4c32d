package sqlmini

import (
	"context"
	"fmt"

	"bpagg"
	"bpagg/internal/catalog"
)

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
	// Auto lets each aggregate pick between the bit-parallel kernels and
	// the reconstruction baseline from the realized selectivity (the
	// paper's optimizer policy). Queries eligible for the fused
	// scan→aggregate pipeline fuse regardless — there is no realized
	// selectivity to consult before the scan — so Auto governs only
	// queries that run the bitmap path.
	Auto bool
	// Stats, when non-nil, receives execution statistics from every scan
	// and aggregate the query runs.
	Stats *bpagg.StatsCollector
}

func (o ExecOptions) opts() []bpagg.ExecOption {
	var out []bpagg.ExecOption
	if o.Threads > 1 {
		out = append(out, bpagg.Parallel(o.Threads))
	}
	if o.Auto {
		out = append(out, bpagg.Access(bpagg.Auto))
	}
	if o.Stats != nil {
		out = append(out, bpagg.CollectStats(o.Stats))
	}
	return out
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
	if err := validateSelects(cat, q); err != nil {
		return nil, err
	}

	// Row-position routing: WHERE rownum BETWEEN peels off into a range
	// restriction (see rownum.go) before any predicate binding — rownum is
	// no catalog column, so every later stage sees only the rest.
	rng, rest, err := splitRownum(cat, q.Where)
	if err != nil {
		return nil, err
	}

	// Partitioned-store routing: a sharded catalog executes through the
	// shard fan-out (see sharded.go); the flat paths below assume
	// cat.Table and never run for it.
	if cat.Sharded != nil {
		return executeSharded(ctx, cat, q, o, rng, rest)
	}

	if rng != nil {
		return executeRange(ctx, cat, q, o, rng, rest)
	}

	if len(q.GroupBy) == 0 {
		// Fused path first: when every conjunct translates to a simple
		// predicate and every aggregate fuses, no filter bitmap is built
		// (see fused.go). Otherwise fall through to the bitmap executor.
		if row, ok, err := tryFusedRow(ctx, cat, q, o); err != nil {
			return nil, err
		} else if ok {
			return &Result{Headers: headers(q, false), Rows: [][]string{row}}, nil
		}
	} else {
		// Grouped twin: single-pass partition + banked aggregates when the
		// query qualifies (see group_fast.go). Otherwise fall through to
		// the per-group walk below.
		if rows, ok, err := tryGroupedRows(ctx, cat, q, o); err != nil {
			return nil, err
		} else if ok {
			return &Result{Headers: headers(q, true), Rows: rows}, nil
		}
	}

	sel, err := bindWhere(cat, q.Where, o.Stats)
	if err != nil {
		return nil, err
	}
	return executeBitmap(ctx, cat, q, sel, o)
}

// executeBitmap is the bitmap executor's tail — the ungrouped aggregate
// row or the per-group walk — against an already-bound selection. Both
// the plain path and the rownum-masked path (executeRange) end here.
func executeBitmap(ctx context.Context, cat *catalog.Catalog, q *Query, sel *bpagg.Bitmap, o ExecOptions) (*Result, error) {
	if len(q.GroupBy) == 0 {
		row, err := aggregateRow(ctx, cat, q.Selects, sel, o)
		if err != nil {
			return nil, err
		}
		return &Result{Headers: headers(q, false), Rows: [][]string{row}}, nil
	}

	gcols, err := groupCols(cat, q)
	if err != nil {
		return nil, err
	}
	grouped, err := groupSelections(ctx, gcols, sel, o.Stats)
	if err != nil {
		return nil, err
	}
	res := &Result{Headers: headers(q, true)}
	for _, g := range grouped {
		row, err := aggregateRow(ctx, cat, q.Selects, g.sel, o)
		if err != nil {
			return nil, err
		}
		cells := make([]string, 0, len(q.GroupBy)+len(row))
		for j, name := range q.GroupBy {
			cells = append(cells, cat.FormatValue(name, g.parts[j]))
		}
		res.Rows = append(res.Rows, append(cells, row...))
	}
	return res, nil
}

// groupCols resolves the GROUP BY column list against the catalog.
func groupCols(cat *catalog.Catalog, q *Query) ([]*bpagg.Column, error) {
	cols := make([]*bpagg.Column, len(q.GroupBy))
	for i, name := range q.GroupBy {
		if cat.Spec(name) == nil {
			return nil, badf("sql: unknown GROUP BY column %q", name)
		}
		cols[i] = cat.Table.Column(name)
	}
	return cols, nil
}

// validateSelects checks the select list against the schema. Quantile
// arguments are re-checked because a Query need not come from Parse.
func validateSelects(cat *catalog.Catalog, q *Query) error {
	for _, sel := range q.Selects {
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

func headers(q *Query, grouped bool) []string {
	var hs []string
	if grouped {
		hs = append(hs, q.GroupBy...)
	}
	for _, s := range q.Selects {
		hs = append(hs, s.Label())
	}
	return hs
}

type group struct {
	parts []uint64 // one code per GROUP BY column
	sel   *bpagg.Bitmap
}

// groupSelections walks the distinct keys bit-parallel (repeated MIN plus
// one equality scan per key) and intersects per-key equality with the
// filter. The key is the minimum of the residual, so removing its rows
// (AndNot of the equality bitmap) leaves exactly the strictly-greater
// residual the next step needs — one scan per group, not two. Composite
// keys nest one walk per column: each discovered value refines its
// parent's selection before recursing, so groups come out in ascending
// composite order and rows NULL in any grouping column drop out. A
// canceled ctx stops the walk after the current key. A non-nil rec
// collects the walk's scan and MIN statistics.
func groupSelections(ctx context.Context, gcols []*bpagg.Column, sel *bpagg.Bitmap, rec *bpagg.StatsCollector) ([]group, error) {
	var gopts []bpagg.ExecOption
	if rec != nil {
		gopts = append(gopts, bpagg.CollectStats(rec))
	}
	var out []group
	var walk func(sel *bpagg.Bitmap, depth int, prefix []uint64) error
	walk = func(sel *bpagg.Bitmap, depth int, prefix []uint64) error {
		gcol := gcols[depth]
		rest := sel.Clone()
		for {
			v, ok, err := gcol.MinContext(ctx, rest, gopts...)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			eq := gcol.ScanStats(bpagg.Equal(v), rec)
			sub := sel.Clone().And(eq)
			parts := append(append([]uint64(nil), prefix...), v)
			if depth == len(gcols)-1 {
				out = append(out, group{parts: parts, sel: sub})
			} else if err := walk(sub, depth+1, parts); err != nil {
				return err
			}
			rest.AndNot(eq)
		}
	}
	if err := walk(sel, 0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func aggregateRow(ctx context.Context, cat *catalog.Catalog, sels []SelectExpr, sel *bpagg.Bitmap, o ExecOptions) ([]string, error) {
	row := make([]string, len(sels))
	for i, s := range sels {
		cell, err := computeCell(ctx, cat, s, sel, o)
		if err != nil {
			return nil, err
		}
		row[i] = cell
	}
	return row, nil
}

// computeCell evaluates one SELECT expression against a selection and
// renders the result cell. It is the per-aggregate unit both the
// per-query path (aggregateRow) and the shared-scan batch executor
// (ExecuteShared) call — the latter memoizes cells so N queries asking
// the same aggregate over the same selection pay for it once.
func computeCell(ctx context.Context, cat *catalog.Catalog, s SelectExpr, sel *bpagg.Bitmap, o ExecOptions) (string, error) {
	if s.Func == CountStar {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d", sel.Count()), nil
	}
	opts := o.opts()
	col := cat.Table.Column(s.Column)
	switch s.Func {
	case Count:
		cnt, err := col.CountContext(ctx, sel)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d", cnt), nil
	case Sum:
		sum, err := col.SumContext(ctx, sel, opts...)
		if err != nil {
			return "", err
		}
		return cat.FormatSum(s.Column, sum, col.Count(sel)), nil
	case Avg:
		sum, err := col.SumContext(ctx, sel, opts...)
		if err != nil {
			return "", err
		}
		return cat.FormatAvg(s.Column, sum, col.Count(sel)), nil
	case Min:
		v, ok, err := col.MinContext(ctx, sel, opts...)
		if err != nil {
			return "", err
		}
		return formatOpt(cat, s.Column, v, ok), nil
	case Max:
		v, ok, err := col.MaxContext(ctx, sel, opts...)
		if err != nil {
			return "", err
		}
		return formatOpt(cat, s.Column, v, ok), nil
	case Median:
		v, ok, err := col.MedianContext(ctx, sel, opts...)
		if err != nil {
			return "", err
		}
		return formatOpt(cat, s.Column, v, ok), nil
	case Quantile:
		v, ok, err := col.QuantileContext(ctx, sel, s.Arg, opts...)
		if err != nil {
			return "", err
		}
		return formatOpt(cat, s.Column, v, ok), nil
	default:
		return "", badf("sql: unsupported aggregate %v", s.Func)
	}
}

func formatOpt(cat *catalog.Catalog, col string, code uint64, ok bool) string {
	if !ok {
		return "NULL"
	}
	return cat.FormatValue(col, code)
}

// bindWhere turns the conjunctive predicate list into one selection bitmap,
// translating literals into code space with floor/ceil semantics so
// unrepresentable constants (10.005 on a cent-scaled column, out-of-range
// values) select exactly the right rows.
func bindWhere(cat *catalog.Catalog, conds []Condition, rec *bpagg.StatsCollector) (*bpagg.Bitmap, error) {
	tbl := cat.Table
	if len(conds) == 0 {
		first := tbl.Column(tbl.Columns()[0])
		return first.All(), nil
	}
	var sel *bpagg.Bitmap
	for _, cond := range conds {
		m, err := bindCondition(cat, cond, rec)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = m
		} else {
			sel.And(m)
		}
	}
	return sel, nil
}

func bindCondition(cat *catalog.Catalog, cond Condition, rec *bpagg.StatsCollector) (*bpagg.Bitmap, error) {
	col := cat.Table.Column(cond.Column)
	if col == nil {
		return nil, badf("sql: unknown column %q", cond.Column)
	}
	switch cond.Op {
	case OpBetween:
		lo, err := bindOne(cat, col, Condition{Column: cond.Column, Op: OpGe, Lits: cond.Lits[:1]}, rec)
		if err != nil {
			return nil, err
		}
		hi, err := bindOne(cat, col, Condition{Column: cond.Column, Op: OpLe, Lits: cond.Lits[1:2]}, rec)
		if err != nil {
			return nil, err
		}
		return lo.And(hi), nil
	case OpIn:
		out := col.None()
		for _, lit := range cond.Lits {
			m, err := bindOne(cat, col, Condition{Column: cond.Column, Op: OpEq, Lits: []Literal{lit}}, rec)
			if err != nil {
				return nil, err
			}
			out.Or(m)
		}
		return out, nil
	default:
		return bindOne(cat, col, cond, rec)
	}
}

// bindOne binds a single-literal comparison.
func bindOne(cat *catalog.Catalog, col *bpagg.Column, cond Condition, rec *bpagg.StatsCollector) (*bpagg.Bitmap, error) {
	lit := cond.Lits[0]
	if lit.IsString {
		code, ok, err := cat.StrToCode(cond.Column, lit.Str)
		if err != nil {
			return nil, badQuery(err)
		}
		switch cond.Op {
		case OpEq:
			if !ok {
				return col.None(), nil
			}
			return col.ScanStats(bpagg.Equal(code), rec), nil
		case OpNe:
			if !ok {
				return allNonNull(cat, col, cond.Column, rec)
			}
			return col.ScanStats(bpagg.NotEqual(code), rec), nil
		default:
			return nil, badf("sql: only = and != apply to string column %q", cond.Column)
		}
	}

	cr, err := cat.NumToCode(cond.Column, lit.Num)
	if err != nil {
		return nil, badQuery(err)
	}
	all := func() (*bpagg.Bitmap, error) { return allNonNull(cat, col, cond.Column, rec) }
	none := func() (*bpagg.Bitmap, error) { return col.None(), nil }
	switch cond.Op {
	case OpEq:
		if cr.Below || cr.Above || !cr.Exact {
			return none()
		}
		return col.ScanStats(bpagg.Equal(cr.Floor), rec), nil
	case OpNe:
		if cr.Below || cr.Above || !cr.Exact {
			return all()
		}
		return col.ScanStats(bpagg.NotEqual(cr.Floor), rec), nil
	case OpLt:
		if cr.Below {
			return none()
		}
		if cr.Above {
			return all()
		}
		// v < L <=> code < ceil(L) when L is not a code, code < L otherwise.
		return col.ScanStats(bpagg.Less(cr.Ceil), rec), nil
	case OpLe:
		if cr.Below {
			return none()
		}
		if cr.Above {
			return all()
		}
		return col.ScanStats(bpagg.LessEq(cr.Floor), rec), nil
	case OpGt:
		if cr.Above {
			return none()
		}
		if cr.Below {
			return all()
		}
		return col.ScanStats(bpagg.Greater(cr.Floor), rec), nil
	case OpGe:
		if cr.Above {
			return none()
		}
		if cr.Below {
			return all()
		}
		return col.ScanStats(bpagg.GreaterEq(cr.Ceil), rec), nil
	}
	return nil, badf("sql: unsupported operator %d", int(cond.Op))
}

// allNonNull selects every non-NULL row of the column.
func allNonNull(cat *catalog.Catalog, col *bpagg.Column, name string, rec *bpagg.StatsCollector) (*bpagg.Bitmap, error) {
	max, err := cat.MaxCode(name)
	if err != nil {
		return nil, badQuery(err)
	}
	return col.ScanStats(bpagg.LessEq(max), rec), nil
}
