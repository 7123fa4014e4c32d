package bpagg

import (
	"context"
	"fmt"
	"time"
)

// Error-returning and context-aware query layer: the implementation
// behind the chaining Query/Grouped API, whose plain methods wrap these.
// Unknown column names — the one untrusted input this layer sees — come
// back as errors instead of panics, and every aggregate accepts a
// context.

// ColumnErr returns the named column or an error when absent — the
// error-returning twin of Column for callers resolving untrusted names.
func (t *Table) ColumnErr(name string) (*Column, error) {
	c := t.cols[name]
	if c == nil {
		return nil, fmt.Errorf("bpagg: unknown column %q", name)
	}
	return c, nil
}

// WhereErr is the error-returning twin of Where: an unknown column name
// or an oversized predicate constant returns an error instead of
// panicking. On success it returns the query for chaining. The clause is
// recorded lazily exactly like Where's, so it participates in fusion and
// its eventual scan is visible to the query's stats collector.
func (q *Query) WhereErr(column string, p Predicate) (*Query, error) {
	col, err := q.t.ColumnErr(column)
	if err != nil {
		return nil, err
	}
	if !p.fits(col.k) {
		return nil, fmt.Errorf("bpagg: predicate constant does not fit in %d bits", col.k)
	}
	q.clauses = append(q.clauses, whereClause{name: column, col: col, pred: p})
	return q, nil
}

// colErr resolves an aggregate target column to an error, not a panic.
func (q *Query) colErr(name string) (*Column, error) {
	return q.t.ColumnErr(name)
}

// CountRowsContext counts the rows passing the filter (COUNT(*)),
// honoring ctx — fused when the clauses allow it, a bitmap popcount
// otherwise.
func (q *Query) CountRowsContext(ctx context.Context) (uint64, error) {
	if preds, o, ok := q.fusedPlan(nil); ok {
		return q.fusedCount(orBackground(ctx), preds, o)
	}
	if err := orBackground(ctx).Err(); err != nil {
		return 0, err
	}
	return uint64(q.Selection().Count()), nil
}

// CountContext counts selected non-NULL rows of the named column.
func (q *Query) CountContext(ctx context.Context, column string) (uint64, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		return q.fusedCount(orBackground(ctx), preds, o)
	}
	return col.CountContext(ctx, q.Selection())
}

// SumContext aggregates SUM over the named column, honoring ctx.
func (q *Query) SumContext(ctx context.Context, column string) (uint64, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		sum, _, err := col.fusedSum(orBackground(ctx), preds, o)
		return sum, err
	}
	return col.SumContext(ctx, q.Selection(), q.execs...)
}

// MinContext aggregates MIN over the named column, honoring ctx.
func (q *Query) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	return q.extremeContext(ctx, column, true)
}

// MaxContext aggregates MAX over the named column, honoring ctx.
func (q *Query) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	return q.extremeContext(ctx, column, false)
}

func (q *Query) extremeContext(ctx context.Context, column string, wantMin bool) (uint64, bool, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		v, cnt, err := col.fusedExtreme(orBackground(ctx), preds, o, wantMin)
		return v, cnt > 0, err
	}
	if wantMin {
		return col.MinContext(ctx, q.Selection(), q.execs...)
	}
	return col.MaxContext(ctx, q.Selection(), q.execs...)
}

// AvgContext aggregates AVG over the named column, honoring ctx.
func (q *Query) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		sum, cnt, err := col.fusedSum(orBackground(ctx), preds, o)
		if err != nil || cnt == 0 {
			return 0, false, err
		}
		return float64(sum) / float64(cnt), true, nil
	}
	return col.AvgContext(ctx, q.Selection(), q.execs...)
}

// MedianContext aggregates the lower MEDIAN over the named column,
// honoring ctx.
func (q *Query) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		v, _, found, err := col.fusedRank(orBackground(ctx), preds, o, medianRank)
		return v, found, err
	}
	return col.MedianContext(ctx, q.Selection(), q.execs...)
}

// RankContext returns the r-th smallest selected value of the named
// column, honoring ctx.
func (q *Query) RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		v, _, found, err := col.fusedRank(orBackground(ctx), preds, o,
			func(uint64) (uint64, bool) { return r, true })
		return v, found, err
	}
	return col.RankContext(ctx, q.Selection(), r, q.execs...)
}

// QuantileContext returns the quantile-q value of the named column,
// honoring ctx; out-of-range q is an error, not a panic.
func (q *Query) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	col, err := q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if err := checkQuantile(quantile); err != nil {
		return 0, false, err
	}
	if preds, o, ok := q.fusedPlan(col); ok {
		v, _, found, err := col.fusedRank(orBackground(ctx), preds, o, quantileRank(quantile))
		return v, found, err
	}
	return col.QuantileContext(ctx, q.Selection(), quantile, q.execs...)
}

// GroupByContext partitions the query's selection by the named columns'
// distinct values, honoring ctx. Qualifying queries run the single-pass
// partition (see GroupBy); otherwise the legacy walk runs, where each
// step is one MIN plus one equality scan (the strictly-greater residual
// is derived from the equality bitmap), so a canceled context stops the
// walk after the current group. Either path records into the query's
// stats collector.
func (q *Query) GroupByContext(ctx context.Context, columns ...string) (*Grouped, error) {
	ctx = orBackground(ctx)
	cols := make([]*Column, len(columns))
	for i, column := range columns {
		col, err := q.t.ColumnErr(column)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return q.groupByCols(ctx, cols)
}

// CountContext returns each group's row count, honoring ctx between
// groups. Like Count, the counts record into the query's stats
// collector as one aggregate per group.
func (g *Grouped) CountContext(ctx context.Context) ([]uint64, error) {
	ctx = orBackground(ctx)
	start := time.Now()
	out := make([]uint64, len(g.keys))
	for i := range g.keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = g.groupCount(i)
	}
	g.q.stats.Record(ExecStats{
		Aggregates: uint64(len(g.keys)),
		AggNanos:   time.Since(start).Nanoseconds(),
	})
	return out, nil
}

// SumContext aggregates SUM of the named column per group, honoring
// ctx. A group whose sum exceeds uint64 returns an *OverflowError
// carrying the exact 128-bit total and the offending group's key.
func (g *Grouped) SumContext(ctx context.Context, column string) ([]uint64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	if o, ok := g.banked(col); ok {
		return g.bankedSum(orBackground(ctx), col, o)
	}
	out := make([]uint64, len(g.keys))
	for i := range g.keys {
		v, err := col.SumContext(ctx, g.Selection(i), g.q.execs...)
		if err != nil {
			return nil, g.decorateOverflow(err, i)
		}
		out[i] = v
	}
	return out, nil
}

// MinContext aggregates MIN of the named column per group, honoring
// ctx. Groups are non-empty by construction, so no ok flags are needed.
func (g *Grouped) MinContext(ctx context.Context, column string) ([]uint64, error) {
	return g.extremeContext(ctx, column, true)
}

// MaxContext aggregates MAX of the named column per group, honoring
// ctx.
func (g *Grouped) MaxContext(ctx context.Context, column string) ([]uint64, error) {
	return g.extremeContext(ctx, column, false)
}

func (g *Grouped) extremeContext(ctx context.Context, column string, wantMin bool) ([]uint64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	if o, ok := g.banked(col); ok {
		vals, anys, err := g.bankedExtreme(orBackground(ctx), col, o, wantMin)
		if err != nil {
			return nil, err
		}
		for _, any := range anys {
			if !any {
				return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
			}
		}
		return vals, nil
	}
	if wantMin {
		return g.eachContext(ctx, column, (*Column).MinContext)
	}
	return g.eachContext(ctx, column, (*Column).MaxContext)
}

// MedianContext aggregates the lower MEDIAN of the named column per
// group, honoring ctx.
func (g *Grouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	return g.eachContext(ctx, column, (*Column).MedianContext)
}

// AvgContext aggregates AVG of the named column per group, honoring
// ctx. A group whose running sum exceeds uint64 returns an
// *OverflowError carrying the exact 128-bit total.
func (g *Grouped) AvgContext(ctx context.Context, column string) ([]float64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	if o, ok := g.banked(col); ok {
		return g.bankedAvg(orBackground(ctx), col, o)
	}
	out := make([]float64, len(g.keys))
	for i := range g.keys {
		v, _, err := col.AvgContext(ctx, g.Selection(i), g.q.execs...)
		if err != nil {
			return nil, g.decorateOverflow(err, i)
		}
		out[i] = v
	}
	return out, nil
}

func (g *Grouped) eachContext(ctx context.Context, column string,
	agg func(*Column, context.Context, *Bitmap, ...ExecOption) (uint64, bool, error)) ([]uint64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(g.keys))
	for i := range g.keys {
		v, ok, err := agg(col, ctx, g.Selection(i), g.q.execs...)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
		}
		out[i] = v
	}
	return out, nil
}
