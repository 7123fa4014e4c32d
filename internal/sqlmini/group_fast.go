package sqlmini

import (
	"context"
	"fmt"
	"strings"

	"bpagg"
	"bpagg/internal/catalog"
)

// Single-pass GROUP BY routing: grouped queries whose WHERE conjuncts
// all translate to simple engine predicates run through
// bpagg.Query.GroupByContext, which partitions the filter across every
// group key in one traversal of the grouping column and answers
// SUM/MIN/MAX for all groups with the banked kernels (DESIGN.md §12).
// Whenever any condition needs bitmap machinery (IN-lists), the
// grouping column has NULLs, or the dictionary cardinality exceeds the
// engine's single-pass ceiling, execution falls back to the
// groupSelections walk + per-group aggregateRow path unchanged.

// groupSinglePassEligible reproduces the engine's single-pass gate at
// plan time so the executor and EXPLAIN route identically. The
// catalog's dictionary bounds make the check complete: the product of
// (max code + 1) over the grouping columns caps the runtime composite
// cardinality, so product ≤ MaxSinglePassGroups means the engine's
// cardinality fallback cannot trigger and a true answer here guarantees
// the single-pass path (direct tier for one ≤10-bit column, hash tier
// otherwise).
func groupSinglePassEligible(cat *catalog.Catalog, q *Query, o ExecOptions) ([]boundPred, bool) {
	if len(q.GroupBy) == 0 {
		return nil, false
	}
	bps, ok := bindPreds(cat, q.Where)
	if !ok {
		return nil, false
	}
	totalBits := 0
	card := uint64(1)
	for _, name := range q.GroupBy {
		if cat.Spec(name) == nil {
			return nil, false // the legacy path reports the unknown-column error
		}
		gcol := cat.Table.Column(name)
		if gcol == nil || gcol.NullCount() > 0 {
			return nil, false
		}
		totalBits += gcol.BitWidth()
		max, err := cat.MaxCode(name)
		if err != nil || max >= bpagg.MaxSinglePassGroups ||
			card > bpagg.MaxSinglePassGroups/(max+1) {
			return nil, false
		}
		card *= max + 1
	}
	if totalBits > 64 {
		return nil, false // composite key would not pack into one word
	}
	return bps, true
}

// tryGroupedRows attempts the single-pass grouped execution path. ok is
// false when the query does not qualify — the caller then runs the
// legacy walk, which also reproduces any binding error.
func tryGroupedRows(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions) ([][]string, bool, error) {
	bps, ok := groupSinglePassEligible(cat, q, o)
	if !ok {
		return nil, false, nil
	}
	bq, err := buildFusedQuery(cat, bps, o, o.Stats)
	if err != nil {
		return nil, false, nil
	}
	g, err := bq.GroupByContext(ctx, q.GroupBy...)
	if err != nil {
		return nil, false, err
	}
	rows, err := groupedRows(ctx, cat, q, g, o)
	if err != nil {
		return nil, false, err
	}
	return rows, true, nil
}

// groupedRows renders the grouped result through the Grouped API — the
// grouped twin of aggregateRow. Bulk per-group methods serve whole
// columns of the result at once (banked single-pass kernels when the
// measure column qualifies); NULL-bearing measure columns take the
// per-group Column calls so NULL semantics (all-NULL groups render
// NULL) match the legacy path exactly.
func groupedRows(ctx context.Context, cat *catalog.Catalog, q *Query, g *bpagg.Grouped, o ExecOptions) ([][]string, error) {
	counts, err := g.CountContext(ctx)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, g.Len())
	for i := range rows {
		rows[i] = make([]string, 0, len(q.Selects)+len(q.GroupBy))
		for j, part := range g.KeyParts(i) {
			rows[i] = append(rows[i], cat.FormatValue(q.GroupBy[j], part))
		}
	}
	for _, s := range q.Selects {
		cells, err := groupedCells(ctx, cat, g, s, counts, o.opts())
		if err != nil {
			return nil, err
		}
		for i := range rows {
			rows[i] = append(rows[i], cells[i])
		}
	}
	return rows, nil
}

func groupedCells(ctx context.Context, cat *catalog.Catalog, g *bpagg.Grouped,
	s SelectExpr, counts []uint64, opts []bpagg.ExecOption) ([]string, error) {
	out := make([]string, g.Len())
	if s.Func == CountStar {
		for i := range out {
			out[i] = fmt.Sprintf("%d", counts[i])
		}
		return out, nil
	}
	col := cat.Table.Column(s.Column)
	nullFree := col.NullCount() == 0
	nonNull := func(i int) uint64 {
		if nullFree {
			return counts[i]
		}
		return col.Count(g.Selection(i))
	}
	switch s.Func {
	case Count:
		for i := range out {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = fmt.Sprintf("%d", nonNull(i))
		}
	case Sum, Avg:
		sums, err := g.SumContext(ctx, s.Column)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if s.Func == Sum {
				out[i] = cat.FormatSum(s.Column, sums[i], nonNull(i))
			} else {
				out[i] = cat.FormatAvg(s.Column, sums[i], nonNull(i))
			}
		}
	case Min, Max:
		if nullFree {
			var vals []uint64
			var err error
			if s.Func == Min {
				vals, err = g.MinContext(ctx, s.Column)
			} else {
				vals, err = g.MaxContext(ctx, s.Column)
			}
			if err != nil {
				return nil, err
			}
			for i, v := range vals {
				out[i] = cat.FormatValue(s.Column, v)
			}
			break
		}
		for i := range out {
			var v uint64
			var ok bool
			var err error
			if s.Func == Min {
				v, ok, err = col.MinContext(ctx, g.Selection(i), opts...)
			} else {
				v, ok, err = col.MaxContext(ctx, g.Selection(i), opts...)
			}
			if err != nil {
				return nil, err
			}
			out[i] = formatOpt(cat, s.Column, v, ok)
		}
	case Median:
		for i := range out {
			v, ok, err := col.MedianContext(ctx, g.Selection(i), opts...)
			if err != nil {
				return nil, err
			}
			out[i] = formatOpt(cat, s.Column, v, ok)
		}
	case Quantile:
		for i := range out {
			v, ok, err := col.QuantileContext(ctx, g.Selection(i), s.Arg, opts...)
			if err != nil {
				return nil, err
			}
			out[i] = formatOpt(cat, s.Column, v, ok)
		}
	default:
		return nil, fmt.Errorf("sql: unsupported aggregate %v", s.Func)
	}
	return out, nil
}

// groupFastDetail renders the single-pass plan node's description: the
// aggregate list, the grouping columns, and the predicate conjunction.
func groupFastDetail(q *Query) string {
	d := selectList(q) + " by " + strings.Join(q.GroupBy, ", ")
	if len(q.Where) == 0 {
		return d
	}
	conds := make([]string, len(q.Where))
	for i, c := range q.Where {
		conds[i] = c.String()
	}
	return d + " where " + strings.Join(conds, " AND ")
}
