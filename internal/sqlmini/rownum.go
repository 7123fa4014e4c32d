package sqlmini

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// rownum pseudo-column: WHERE rownum BETWEEN a AND b restricts the query
// to rows [a, b] by 0-based position, routed to the engine's prefix-sum
// range index (bpagg.Query.Range / ShardedQuery.Range, DESIGN.md §16).
// When nothing else filters the rows and the query is ungrouped, the
// aggregates answer from the index in O(1) per aggregate; otherwise the
// range becomes one more conjunctive mask on the bitmap path. A catalog
// column actually named "rownum" shadows the pseudo-column, so existing
// schemas keep their meaning.

const rownumName = "rownum"

// rowRange is a half-open row-position range [lo, hi).
type rowRange struct{ lo, hi int }

// clampRowBound narrows a parsed literal to a row index. Bounds beyond
// 2^53 exceed float64's integer range (and any table); they clamp rather
// than overflow the int conversion, and the engine clips to the row count
// anyway.
func clampRowBound(f float64) int {
	const max = 1 << 53
	if f < 0 {
		return -1
	}
	if f > max {
		return max
	}
	return int(f)
}

// splitRownum partitions the WHERE list into a row-position range and the
// remaining conditions. rng is nil when no rownum condition appears (or a
// real catalog column shadows the name); several rownum conditions
// intersect. Only BETWEEN with numeric bounds is accepted — row position
// is ordinal, so equality and one-sided forms are deliberately excluded
// rather than silently misread.
func splitRownum(cat *catalog.Catalog, conds []Condition) (*rowRange, []Condition, error) {
	if cat.Spec(rownumName) != nil {
		return nil, conds, nil
	}
	var rng *rowRange
	rest := make([]Condition, 0, len(conds))
	for _, cond := range conds {
		if cond.Column != rownumName {
			rest = append(rest, cond)
			continue
		}
		if cond.Op != OpBetween || len(cond.Lits) < 2 {
			return nil, nil, badf("sql: rownum supports only BETWEEN")
		}
		if cond.Lits[0].IsString || cond.Lits[1].IsString {
			return nil, nil, badf("sql: rownum bounds must be numeric")
		}
		// BETWEEN is inclusive over integer positions: fractional bounds
		// tighten inward (ceil the low, floor the high), and the inclusive
		// high becomes the half-open hi.
		lo := clampRowBound(math.Ceil(cond.Lits[0].Num))
		if lo < 0 {
			lo = 0
		}
		hi := lo
		if h := clampRowBound(math.Floor(cond.Lits[1].Num)); h >= lo {
			hi = h + 1
		}
		if rng == nil {
			rng = &rowRange{lo: lo, hi: hi}
			continue
		}
		if lo > rng.lo {
			rng.lo = lo
		}
		if hi < rng.hi {
			rng.hi = hi
		}
		if rng.hi < rng.lo {
			rng.hi = rng.lo
		}
	}
	return rng, rest, nil
}

// buildRangeQuery assembles the engine query whose Range serves the
// rownum restriction, directing its stats into the given collector (nil
// for none).
func buildRangeQuery(cat *catalog.Catalog, o ExecOptions, stats *bpagg.StatsCollector) *bpagg.Query {
	bq := cat.Table.Query()
	if o.Threads > 1 {
		bq.With(bpagg.Parallel(o.Threads))
	}
	bq.WithStatsInto(stats)
	return bq
}

// rangeMask materializes the row-position mask through the engine's range
// selection.
func rangeMask(cat *catalog.Catalog, rng *rowRange) *bpagg.Bitmap {
	return cat.Table.Query().Range(rng.lo, rng.hi).Selection()
}

// executeRange runs a rownum-restricted query against a flat catalog.
// Ungrouped queries with no other predicate answer through the RangeQuery
// API — index-served per aggregate; anything else binds the remaining
// conjuncts as usual and applies the range as one more mask.
func executeRange(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions, rng *rowRange, rest []Condition) (*Result, error) {
	if len(rest) == 0 && len(q.GroupBy) == 0 {
		rq := buildRangeQuery(cat, o, o.Stats).Range(rng.lo, rng.hi)
		row, err := aggregateRowRange(ctx, cat, q.Selects, rq)
		if err != nil {
			return nil, err
		}
		return &Result{Headers: headers(q, false), Rows: [][]string{row}}, nil
	}
	sel, err := bindWhere(cat, rest, o.Stats)
	if err != nil {
		return nil, err
	}
	sel.And(rangeMask(cat, rng))
	return executeBitmap(ctx, cat, q, sel, o)
}

// aggregateRowRange renders one result row through the RangeQuery API —
// the row-position twin of aggregateRowQuery. SUM and AVG pair the
// prefix-difference sum with the range's non-NULL count so formatting
// never needs a bitmap; rank-family aggregates fall back inside the
// engine with the range as a filter.
func aggregateRowRange(ctx context.Context, cat *catalog.Catalog, sels []SelectExpr, rq *bpagg.RangeQuery) ([]string, error) {
	row := make([]string, len(sels))
	for i, s := range sels {
		switch s.Func {
		case CountStar:
			cnt, err := rq.CountRowsContext(ctx)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Count:
			cnt, err := rq.CountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Sum, Avg:
			sum, err := rq.SumContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			cnt, err := rq.CountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			if s.Func == Sum {
				row[i] = cat.FormatSum(s.Column, sum, cnt)
			} else {
				row[i] = cat.FormatAvg(s.Column, sum, cnt)
			}
		case Min:
			v, ok, err := rq.MinContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Max:
			v, ok, err := rq.MaxContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Median:
			v, ok, err := rq.MedianContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Quantile:
			v, ok, err := rq.QuantileContext(ctx, s.Column, s.Arg)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		default:
			return nil, fmt.Errorf("sql: unsupported aggregate %v", s.Func)
		}
	}
	return row, nil
}

// rangeDetail renders the range stage description: the aggregate list,
// the row window, and any residual predicate conjunction.
func rangeDetail(q *Query, rng *rowRange, conds []Condition) string {
	d := fmt.Sprintf("%s rows [%d, %d)", selectList(q), rng.lo, rng.hi)
	if len(conds) > 0 {
		parts := make([]string, len(conds))
		for i, c := range conds {
			parts[i] = c.String()
		}
		d += " where " + strings.Join(parts, " AND ")
	}
	return d
}

// explainRange builds the EXPLAIN ANALYZE tree for a rownum-restricted
// flat query, reproducing executeRange's routing exactly: the index-served
// form is the one stage that runs, the masked form is the bitmap plan with
// the range mask feeding combine alongside the predicate scans.
func explainRange(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions, queryStart time.Time, rng *rowRange, rest []Condition) (*ExplainResult, error) {
	if len(rest) != 0 || len(q.GroupBy) != 0 {
		return explainBitmap(ctx, cat, q, rest, rng, o, queryStart)
	}
	rec := bpagg.NewStatsCollector()
	rq := buildRangeQuery(cat, o, rec).Range(rng.lo, rng.hi)
	t0 := time.Now()
	if _, err := aggregateRowRange(ctx, cat, q.Selects, rq); err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	// Matching-row cardinality is plan decoration; count it stats-free so
	// the recorded counters stay exactly what execution cost.
	rows, err := buildRangeQuery(cat, o, nil).Range(rng.lo, rng.hi).CountRowsContext(ctx)
	if err != nil {
		return nil, err
	}
	node := &PlanNode{
		Op:     "range (prefix-index)",
		Detail: rangeDetail(q, rng, nil),
		Rows:   rows,
		Stats:  rec.Snapshot(),
		Wall:   wall,
	}
	root := &PlanNode{
		Op:       "query",
		Rows:     1,
		Wall:     time.Since(queryStart),
		Children: []*PlanNode{node},
	}
	if o.Stats != nil {
		recordTree(o.Stats, root)
	}
	return &ExplainResult{Root: root}, nil
}
