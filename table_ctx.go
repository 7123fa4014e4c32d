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
// distinct values, honoring ctx, in one pass over the grouping columns
// (see Grouped for the two tiers); the partition records into the query's
// stats collector. More than MaxSinglePassGroups distinct keys is
// ErrGroupCardinality.
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

// sums128 returns each group's SUM of the named column as an exact
// 128-bit partial — what a merge across shard partitions adds up. The
// banked kernels report hi/lo directly; the per-group path recovers an
// overflowing group's exact total from its *OverflowError.
func (g *Grouped) sums128(ctx context.Context, column string) (his, los []uint64, err error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, nil, err
	}
	if o, ok := g.banked(col); ok {
		return g.bankedSums(orBackground(ctx), col, o)
	}
	his, los = make([]uint64, len(g.keys)), make([]uint64, len(g.keys))
	for i := range g.keys {
		v, err := col.SumContext(ctx, g.Selection(i), g.q.execs...)
		if his[i], los[i], err = sum128(v, err); err != nil {
			return nil, nil, err
		}
	}
	return his, los, nil
}

// groupSums64 narrows per-group 128-bit sums to the public result: the
// first group in key order whose total exceeds uint64 is an
// *OverflowError carrying the exact total and that group's key.
func groupSums64(his, los []uint64, keyParts func(i int) []uint64) ([]uint64, error) {
	for i, hi := range his {
		if hi != 0 {
			return nil, &OverflowError{Hi: hi, Lo: los[i], Group: keyParts(i)}
		}
	}
	return los, nil
}

// SumContext aggregates SUM of the named column per group, honoring
// ctx: banked single-pass over the measure column when the partition and
// column qualify, one Column.SumContext per group otherwise. A group
// whose sum exceeds uint64 returns an *OverflowError carrying the exact
// 128-bit total and the offending group's key.
func (g *Grouped) SumContext(ctx context.Context, column string) ([]uint64, error) {
	his, los, err := g.sums128(ctx, column)
	if err != nil {
		return nil, err
	}
	return groupSums64(his, los, g.KeyParts)
}

// MinContext aggregates MIN of the named column per group, honoring
// ctx. Groups are non-empty by construction, so no ok flags are needed.
func (g *Grouped) MinContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.extremes(ctx, column, true))
}

// MaxContext aggregates MAX of the named column per group, honoring
// ctx.
func (g *Grouped) MaxContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.extremes(ctx, column, false))
}

// extremes returns each group's MIN or MAX of the named column with a
// presence flag: anys[i] is false when group i holds no non-NULL value,
// which a merge across shard partitions skips and MinContext/MaxContext
// report as a broken invariant.
func (g *Grouped) extremes(ctx context.Context, column string, wantMin bool) (vals []uint64, anys []bool, err error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, nil, err
	}
	if o, ok := g.banked(col); ok {
		return g.bankedExtreme(orBackground(ctx), col, o, wantMin)
	}
	if wantMin {
		return g.eachContext(ctx, col, (*Column).MinContext)
	}
	return g.eachContext(ctx, col, (*Column).MaxContext)
}

// allGroups narrows a per-group result with presence flags to the plain
// form, where a group without a value is an invariant violation.
func allGroups(vals []uint64, oks []bool, err error) ([]uint64, error) {
	if err != nil {
		return nil, err
	}
	for _, ok := range oks {
		if !ok {
			return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
		}
	}
	return vals, nil
}

// MedianContext aggregates the lower MEDIAN of the named column per
// group, honoring ctx.
func (g *Grouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	return allGroups(g.eachContext(ctx, col, (*Column).MedianContext))
}

// nonNullCounts returns each group's count of non-NULL values of the
// named column — COUNT(col) per group and AVG's divisor. A NULL-free
// column's are the partition's row counts (read off the partition, not an
// aggregate, so nothing records).
func (g *Grouped) nonNullCounts(ctx context.Context, column string) ([]uint64, error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, err
	}
	if err := orBackground(ctx).Err(); err != nil {
		return nil, err
	}
	out := make([]uint64, len(g.keys))
	for i := range g.keys {
		if col.nulls == nil {
			out[i] = g.groupCount(i)
		} else if out[i], err = col.CountContext(ctx, g.Selection(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AvgContext aggregates AVG of the named column per group, honoring
// ctx: the group's sum over its non-NULL count. A group whose sum exceeds
// uint64 returns an *OverflowError carrying the exact 128-bit total and
// the group's key.
func (g *Grouped) AvgContext(ctx context.Context, column string) ([]float64, error) {
	sums, err := g.SumContext(ctx, column)
	if err != nil {
		return nil, err
	}
	counts, err := g.nonNullCounts(ctx, column)
	if err != nil {
		return nil, err
	}
	return groupAvgs(sums, counts), nil
}

// groupAvgs divides per-group sums by their non-NULL counts; a group
// without values averages to 0.
func groupAvgs(sums, counts []uint64) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		if counts[i] > 0 {
			out[i] = float64(s) / float64(counts[i])
		}
	}
	return out
}

// eachContext runs one Column aggregate per group selection.
func (g *Grouped) eachContext(ctx context.Context, col *Column,
	agg func(*Column, context.Context, *Bitmap, ...ExecOption) (uint64, bool, error)) (vals []uint64, oks []bool, err error) {
	vals, oks = make([]uint64, len(g.keys)), make([]bool, len(g.keys))
	for i := range g.keys {
		if vals[i], oks[i], err = agg(col, ctx, g.Selection(i), g.q.execs...); err != nil {
			return nil, nil, err
		}
	}
	return vals, oks, nil
}
