package bpagg

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bpagg/internal/core"
	"bpagg/internal/parallel"
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
	q.where(column, p)
	return q, nil
}

// aggOp names a scalar aggregate. The order is load-bearing: the ops up
// to opAvg are additive (their partials merge by 128-bit addition, the
// rest as extremes), and the ops up to opMax are the ones the range index
// can serve.
type aggOp uint8

const (
	opCountRows aggOp = iota
	opCount
	opSum
	opSumCount
	opAvg
	opMin
	opMax
	opMedian
	opRank
	opQuantile
)

// aggTable spells, by op, every aggregate a statement can name
// (GroupAgg.Op; AVG names SUM's op) and, for those a grouped pass banks,
// its measure.
var aggTable = [...]aggEntry{
	opCount: {"COUNT", parallel.MeasureCount}, opSum: {"SUM", parallel.MeasureSum},
	opMin: {"MIN", parallel.MeasureMin}, opMax: {"MAX", parallel.MeasureMax},
	opMedian: {name: "MEDIAN"}, opQuantile: {name: "QUANTILE"},
}

type aggEntry struct {
	name    string
	measure parallel.MeasureOp
}

// aggCall is one scalar aggregate as a value: what a wrapper asks eval,
// and what the shard fan-out asks every live shard's view.
type aggCall struct {
	op       aggOp
	column   string
	rank     uint64  // opRank
	quantile float64 // opQuantile
}

// partial is one view's answer: a 128-bit sum with its non-NULL count
// (counts alone use cnt), or a value with its presence flag in lo and ok.
type partial struct {
	hi, lo, cnt uint64
	ok          bool
}

// narrowSum narrows eval's 128-bit SUM partial to the public result: a
// total past uint64 is an *OverflowError carrying the exact value.
func narrowSum(p partial, err error) (sum, cnt uint64, _ error) {
	if err != nil {
		return 0, 0, err
	}
	if p.hi != 0 {
		return 0, 0, &OverflowError{Hi: p.hi, Lo: p.lo}
	}
	return p.lo, p.cnt, nil
}

// avgOf divides a SUM by its non-NULL COUNT — the one place AVG becomes a
// float. ok is false when nothing was counted.
func avgOf(sum, cnt uint64, err error) (float64, bool, error) {
	if err != nil || cnt == 0 {
		return 0, false, err
	}
	return float64(sum) / float64(cnt), true, nil
}

// rankOf maps the selected non-NULL count to the wanted 1-based rank.
func (c aggCall) rankOf(u uint64) (uint64, bool) {
	switch c.op {
	case opMedian:
		return medianRank(u)
	case opQuantile:
		return quantileRank(c.quantile)(u)
	}
	return c.rank, true
}

// eval answers one scalar aggregate, and is where its engine is chosen
// (DESIGN.md §7): a filter-free range over an indexed column reads the
// prefix-sum index; an unranged query whose clauses fuse runs the fused
// scan→aggregate pass; everything else runs the two-phase kernels on the
// view's selection, built once per call. The three are bit-identical. A
// rank has no index form: it is one radix descent over the candidates the
// same choice of filter selects (rankFilter). Unknown columns and
// out-of-range quantiles are errors, not panics. The call travels by
// pointer: a multi-shard fan-out runs this path on a fresh goroutine
// stack, and five words less per frame keep an index-served aggregate from
// growing it (+1 µs per statement when it does).
func (v *flatView) eval(ctx context.Context, c *aggCall) (partial, error) {
	ctx = orBackground(ctx)
	var col *Column
	if c.op != opCountRows {
		var err error
		if col, err = v.t.ColumnErr(c.column); err != nil {
			return partial{}, err
		}
	}
	if c.op == opQuantile {
		if err := checkQuantile(c.quantile); err != nil {
			return partial{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return partial{}, err
	}
	switch {
	case c.op >= opMedian:
		var p partial
		var err error
		p.lo, p.ok, err = col.rank(ctx, v.rankFilter(col), execOptions(v.execs).par, c.rankOf)
		return p, err
	case v.ranged:
		if p, ok := v.evalIndex(c); ok {
			return p, nil
		}
	default:
		if o := execOptions(v.execs); v.fuses(col, o.access) {
			return v.evalFused(ctx, c, col, o)
		}
	}
	return v.evalSelection(ctx, c, col, v.Selection())
}

// rankFilter is the filter eval feeds a rank over col: the clauses'
// predicate conjunction when an unranged view's clauses fuse, else the
// view's selection without col's NULL rows. The access method picks
// neither the filter nor the descent.
func (v *flatView) rankFilter(col *Column) core.Filter {
	if !v.ranged && v.fuses(col, BitParallel) {
		return core.Preds(v.fusedPlan())
	}
	return core.Bits(col.effective(v.Selection()))
}

// evalFused runs the driver of the aggregate's family fed by the clauses'
// predicate conjunction; a COUNT runs in the first clause's column's
// windows (every eligible column shares the window geometry).
func (v *flatView) evalFused(ctx context.Context, c *aggCall, col *Column, o execConfig) (p partial, err error) {
	src := core.Preds(v.fusedPlan())
	switch {
	case c.op <= opCount:
		c0 := v.clauses[0].col
		p.cnt, err = parallel.CountCtx(ctx, src, c0.segRows(), c0.Len(), o.par)
		err = wrapExecErr(err)
	case c.op <= opAvg:
		p.lo, p.cnt, err = col.sum(ctx, src, o)
		p.hi, p.lo, err = sum128(p.lo, err)
	default:
		p.lo, p.cnt, err = col.extreme(ctx, src, o, c.op == opMin)
		p.ok = p.cnt > 0
	}
	return p, err
}

// evalSelection runs the two-phase Column aggregate on a materialized
// selection. AVG counts first and sums only a non-empty selection, so it
// records what Column.AvgContext records.
func (v *flatView) evalSelection(ctx context.Context, c *aggCall, col *Column, sel *Bitmap) (p partial, err error) {
	switch c.op {
	case opCountRows:
		p.cnt = uint64(sel.Count())
	case opCount:
		p.cnt, err = col.CountContext(ctx, sel)
	case opSum:
		p.lo, err = col.SumContext(ctx, sel, v.execs...)
	case opSumCount:
		if p.cnt, err = col.CountContext(ctx, sel); err == nil {
			p.lo, err = col.SumContext(ctx, sel, v.execs...)
		}
	case opAvg:
		p.lo, p.cnt, err = col.sumCount(ctx, sel, v.execs)
	case opMin:
		p.lo, p.ok, err = col.MinContext(ctx, sel, v.execs...)
	case opMax:
		p.lo, p.ok, err = col.MaxContext(ctx, sel, v.execs...)
	}
	if c.op <= opAvg {
		p.hi, p.lo, err = sum128(p.lo, err)
	}
	return p, err
}

// CountRowsContext counts the rows passing the filter (COUNT(*)),
// honoring ctx.
func (v *flatView) CountRowsContext(ctx context.Context) (uint64, error) {
	p, err := v.eval(ctx, &aggCall{op: opCountRows})
	return p.cnt, err
}

// CountContext counts selected non-NULL rows of the named column.
func (v *flatView) CountContext(ctx context.Context, column string) (uint64, error) {
	p, err := v.eval(ctx, &aggCall{op: opCount, column: column})
	return p.cnt, err
}

// SumContext aggregates SUM over the named column, honoring ctx; a sum
// exceeding uint64 returns *OverflowError (every engine carries the exact
// 128-bit total).
func (v *flatView) SumContext(ctx context.Context, column string) (uint64, error) {
	sum, _, err := narrowSum(v.eval(ctx, &aggCall{op: opSum, column: column}))
	return sum, err
}

// SumCountContext aggregates SUM and the column's non-NULL COUNT — the
// shape AVG and SQL formatters need: one pass when the query fuses, two
// O(1) lookups on the range index, a SUM plus a popcount over one
// selection otherwise.
func (v *flatView) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	return narrowSum(v.eval(ctx, &aggCall{op: opSumCount, column: column}))
}

// AvgContext aggregates AVG over the named column, honoring ctx; ok is
// false when no row qualifies. Matching SUM's contract, a sum exceeding
// uint64 returns *OverflowError.
func (v *flatView) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	return avgOf(narrowSum(v.eval(ctx, &aggCall{op: opAvg, column: column})))
}

// MinContext aggregates MIN over the named column, honoring ctx.
func (v *flatView) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	p, err := v.eval(ctx, &aggCall{op: opMin, column: column})
	return p.lo, p.ok, err
}

// MaxContext aggregates MAX over the named column, honoring ctx.
func (v *flatView) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	p, err := v.eval(ctx, &aggCall{op: opMax, column: column})
	return p.lo, p.ok, err
}

// MedianContext aggregates the lower MEDIAN over the named column,
// honoring ctx. Rank-family aggregates have no index form: under a row
// range they rank the selection cut to the range.
func (v *flatView) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	p, err := v.eval(ctx, &aggCall{op: opMedian, column: column})
	return p.lo, p.ok, err
}

// RankContext returns the r-th smallest selected value of the named
// column, honoring ctx.
func (v *flatView) RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error) {
	p, err := v.eval(ctx, &aggCall{op: opRank, column: column, rank: r})
	return p.lo, p.ok, err
}

// QuantileContext returns the quantile-q value of the named column,
// honoring ctx; out-of-range q is an error, not a panic.
func (v *flatView) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	p, err := v.eval(ctx, &aggCall{op: opQuantile, column: column, quantile: quantile})
	return p.lo, p.ok, err
}

// GroupByContext partitions the view's selection by the named columns'
// distinct values, honoring ctx, in one pass over the grouping columns
// (see Grouped for the pipeline); the partition records into the query's
// stats collector. More than MaxSinglePassGroups distinct keys is
// ErrGroupCardinality.
func (v *flatView) GroupByContext(ctx context.Context, columns ...string) (*Grouped, error) {
	return v.groupBy(orBackground(ctx), columns, nil)
}

// CountContext returns each group's row count, honoring ctx between
// groups. Like Count, the counts record into the query's stats
// collector as one aggregate per group.
func (g *Grouped) CountContext(ctx context.Context) ([]uint64, error) {
	ctx = orBackground(ctx)
	start := time.Now()
	out := make([]uint64, len(g.hp.Keys))
	for i := range g.hp.Keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = g.hp.Counts[i]
	}
	g.q.stats.Record(ExecStats{
		Aggregates: uint64(len(g.hp.Keys)),
		AggNanos:   time.Since(start).Nanoseconds(),
	})
	return out, nil
}

// sums128 returns each group's SUM of the named column as an exact
// 128-bit partial — what a merge across shard partitions adds up — without
// the column's NULL rows.
func (g *Grouped) sums128(ctx context.Context, column string) (his, los []uint64, err error) {
	b, err := g.bank(ctx, aggCall{op: opSum, column: column})
	if err != nil {
		return nil, nil, err
	}
	return b.His, b.Los, nil
}

// bank answers aggregate c per group: from the pass's bank on a partition
// built for named aggregates, in one pass over the kept run list otherwise.
func (g *Grouped) bank(ctx context.Context, c aggCall) (*parallel.Bank, error) {
	col, err := g.q.t.ColumnErr(c.column)
	if err == nil {
		err = g.check(c)
	}
	if err != nil {
		return nil, err
	}
	if g.named != nil {
		return g.hp.Bank(measureOf(col, c.op)), nil
	}
	b, err := parallel.BankCtx(orBackground(ctx), measureOf(col, c.op), g.hp, g.opts())
	return b, wrapExecErr(err)
}

// check is a measured partition's answer to aggregate c: an error when c
// was not named, rather than a second pass, which could see rows appended
// since; nil otherwise, and always on a plain GroupBy.
func (g *Grouped) check(c aggCall) error {
	if g.named == nil || slices.Contains(g.named, c) {
		return nil
	}
	return fmt.Errorf("bpagg: %s(%s) was not named when the groups were built", aggTable[c.op].name, c.column)
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
// ctx, in one pass over the measure column. A group whose sum exceeds
// uint64 returns an *OverflowError carrying the exact 128-bit total and
// the offending group's key.
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
	c := aggCall{op: opMax, column: column}
	if wantMin {
		c.op = opMin
	}
	b, err := g.bank(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	return b.Best, b.Any, nil
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
// group, honoring ctx, in one radix descent for every group.
func (g *Grouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	col, err := g.q.t.ColumnErr(column)
	if err != nil {
		return nil, err
	}
	if err := g.check(aggCall{op: opMedian, column: column}); err != nil {
		return nil, err
	}
	part := []parallel.RankPart{{Col: groupCol(col), HP: g.hp}}
	vals, oks, err := parallel.RankCtx(orBackground(ctx), part, len(g.hp.Keys), medianRank, g.opts())
	return allGroups(vals, oks, wrapExecErr(err))
}

// nonNullCounts returns each group's count of non-NULL values of the
// named column — COUNT(col) per group and AVG's divisor: the partition's
// own row counts for a NULL-free column, which callers only read, and a
// popcount bank without the NULL rows otherwise. Neither reads the
// column's packed words, so nothing records.
func (g *Grouped) nonNullCounts(ctx context.Context, column string) ([]uint64, error) {
	col, err := g.q.t.ColumnErr(column)
	if err != nil {
		return nil, err
	}
	if err := orBackground(ctx).Err(); err != nil {
		return nil, err
	}
	if err := g.check(aggCall{op: opCount, column: column}); err != nil {
		return nil, err
	}
	if col.nulls == nil {
		return g.hp.Counts, nil
	}
	b, err := g.bank(ctx, aggCall{op: opCount, column: column})
	if err != nil {
		return nil, err
	}
	return b.Count, nil
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
