package sqlmini

import (
	"context"
	"fmt"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// Sharded routing: when the catalog is backed by a partitioned store
// (catalog.Catalog.Sharded non-nil), queries execute through
// bpagg.ShardedQuery instead of the flat paths. Every WHERE conjunct
// translates to an engine predicate — including IN-lists, which the
// sharded engine evaluates natively — so the shard catalog prunes whole
// shards by min/max before any zone map or packed word is touched, and
// the surviving shards fan out in parallel with a deterministic
// shard-ordered merge. There is no bitmap fallback here: the store has
// no global row numbering to build one against.

// bindShardedPreds translates the conjunctive condition list into engine
// predicates, mirroring bindPreds' floor/ceil literal semantics and
// additionally binding IN-lists (each member translated exactly;
// unrepresentable members select nothing, so they drop out of the list).
func bindShardedPreds(cat *catalog.Catalog, conds []Condition) ([]boundPred, error) {
	out := make([]boundPred, 0, len(conds))
	for _, cond := range conds {
		switch cond.Op {
		case OpIn:
			if cat.Spec(cond.Column) == nil {
				return nil, badf("sql: unknown column %q", cond.Column)
			}
			codes, err := bindInCodes(cat, cond)
			if err != nil {
				return nil, badQuery(err)
			}
			out = append(out, boundPred{cond.Column, bpagg.In(codes...)})
		case OpBetween:
			lo, err := bindOnePred(cat, Condition{Column: cond.Column, Op: OpGe, Lits: cond.Lits[:1]})
			if err != nil {
				return nil, badQuery(err)
			}
			hi, err := bindOnePred(cat, Condition{Column: cond.Column, Op: OpLe, Lits: cond.Lits[1:2]})
			if err != nil {
				return nil, badQuery(err)
			}
			out = append(out, boundPred{cond.Column, lo}, boundPred{cond.Column, hi})
		default:
			p, err := bindOnePred(cat, cond)
			if err != nil {
				return nil, badQuery(err)
			}
			out = append(out, boundPred{cond.Column, p})
		}
	}
	return out, nil
}

// bindInCodes translates an IN-list's members to exact codes, dropping
// members no stored value can equal.
func bindInCodes(cat *catalog.Catalog, cond Condition) ([]uint64, error) {
	var codes []uint64
	for _, lit := range cond.Lits {
		if lit.IsString {
			code, ok, err := cat.StrToCode(cond.Column, lit.Str)
			if err != nil {
				return nil, err
			}
			if ok {
				codes = append(codes, code)
			}
			continue
		}
		cr, err := cat.NumToCode(cond.Column, lit.Num)
		if err != nil {
			return nil, err
		}
		if !cr.Below && !cr.Above && cr.Exact {
			codes = append(codes, cr.Floor)
		}
	}
	return codes, nil
}

// buildShardedQuery assembles the partitioned-store query for the
// translated conjuncts, directing its stats into the given collector
// (nil for none).
func buildShardedQuery(cat *catalog.Catalog, bps []boundPred, o ExecOptions, stats *bpagg.StatsCollector) (*bpagg.ShardedQuery, error) {
	sq := cat.Sharded.Query()
	if o.Threads > 1 {
		sq = sq.With(bpagg.Parallel(o.Threads))
	}
	if o.Auto {
		sq = sq.With(bpagg.Access(bpagg.Auto))
	}
	if stats != nil {
		sq = sq.WithStatsInto(stats)
	}
	for _, bp := range bps {
		var err error
		if sq, err = sq.WhereErr(bp.column, bp.pred); err != nil {
			return nil, badQuery(err)
		}
	}
	return sq, nil
}

// validateShardedGroupBy rejects unknown grouping columns before
// execution, so GroupByContext errors past this point are engine errors
// (deadline, cancel, overflow, cardinality) and propagate untyped —
// wrapping them as *BadQueryError would misclassify a timeout as the
// client's fault.
func validateShardedGroupBy(cat *catalog.Catalog, q *Query) error {
	for _, name := range q.GroupBy {
		if cat.Spec(name) == nil {
			return badf("sql: unknown GROUP BY column %q", name)
		}
	}
	return nil
}

// executeSharded runs a validated query against the partitioned store.
// A rownum range routes through ShardedQuery.Range — shards wholly
// outside the range prune in the catalog pass, and each survivor answers
// its local slice (index-served when no predicate remains). The grouped
// walk has no range form, so rownum with GROUP BY is rejected here rather
// than silently ignored.
func executeSharded(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions, rng *rowRange, rest []Condition) (*Result, error) {
	bps, err := bindShardedPreds(cat, rest)
	if err != nil {
		return nil, err
	}
	if rng != nil && len(q.GroupBy) != 0 {
		return nil, badf("sql: rownum with GROUP BY is not supported on a partitioned store")
	}
	sq, err := buildShardedQuery(cat, bps, o, o.Stats)
	if err != nil {
		return nil, err
	}
	if rng != nil {
		row, err := aggregateRowShardedRange(ctx, cat, q.Selects, sq.Range(rng.lo, rng.hi))
		if err != nil {
			return nil, err
		}
		return &Result{Headers: headers(q, false), Rows: [][]string{row}}, nil
	}
	if len(q.GroupBy) == 0 {
		row, err := aggregateRowSharded(ctx, cat, q.Selects, sq)
		if err != nil {
			return nil, err
		}
		return &Result{Headers: headers(q, false), Rows: [][]string{row}}, nil
	}
	if err := validateShardedGroupBy(cat, q); err != nil {
		return nil, err
	}
	g, err := sq.GroupByContext(ctx, q.GroupBy...)
	if err != nil {
		return nil, err
	}
	rows, err := shardedGroupedRows(ctx, cat, q, g)
	if err != nil {
		return nil, err
	}
	return &Result{Headers: headers(q, true), Rows: rows}, nil
}

// explainSharded builds the EXPLAIN ANALYZE tree for a sharded catalog:
// the query runs for real against the partitioned store with a
// stage-local collector, so the node's counters — including
// shards_scanned and shards_pruned from every aggregate's fan-out — are
// exactly what execution cost.
func explainSharded(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions, queryStart time.Time, rng *rowRange, rest []Condition) (*ExplainResult, error) {
	bps, err := bindShardedPreds(cat, rest)
	if err != nil {
		return nil, err
	}
	if rng != nil && len(q.GroupBy) != 0 {
		return nil, badf("sql: rownum with GROUP BY is not supported on a partitioned store")
	}
	rec := bpagg.NewStatsCollector()
	sq, err := buildShardedQuery(cat, bps, o, rec)
	if err != nil {
		return nil, err
	}

	var node *PlanNode
	t0 := time.Now()
	if rng != nil {
		if _, err := aggregateRowShardedRange(ctx, cat, q.Selects, sq.Range(rng.lo, rng.hi)); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		// Cardinality decoration on a stats-free twin, like the other nodes.
		cq, err := buildShardedQuery(cat, bps, o, nil)
		if err != nil {
			return nil, err
		}
		rows, err := cq.Range(rng.lo, rng.hi).CountRowsContext(ctx)
		if err != nil {
			return nil, err
		}
		node = &PlanNode{
			Op:     "shard range",
			Detail: rangeDetail(q, rng, rest),
			Rows:   rows,
			Stats:  rec.Snapshot(),
			Wall:   wall,
		}
	} else if len(q.GroupBy) == 0 {
		if _, err := aggregateRowSharded(ctx, cat, q.Selects, sq); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		// Matching-row cardinality is plan decoration; count it stats-free
		// so the recorded counters stay exactly what execution cost.
		cq, err := buildShardedQuery(cat, bps, o, nil)
		if err != nil {
			return nil, err
		}
		rows, err := cq.CountRowsContext(ctx)
		if err != nil {
			return nil, err
		}
		node = &PlanNode{
			Op:     "shard scan+agg",
			Detail: fusedDetail(q),
			Rows:   rows,
			Stats:  rec.Snapshot(),
			Wall:   wall,
		}
	} else {
		if err := validateShardedGroupBy(cat, q); err != nil {
			return nil, err
		}
		g, err := sq.GroupByContext(ctx, q.GroupBy...)
		if err != nil {
			return nil, err
		}
		if _, err := shardedGroupedRows(ctx, cat, q, g); err != nil {
			return nil, err
		}
		node = &PlanNode{
			Op:     "shard group+agg",
			Detail: groupFastDetail(q),
			Rows:   uint64(g.Len()),
			Stats:  rec.Snapshot(),
			Wall:   time.Since(t0),
		}
	}
	rows := node.Rows
	if len(q.GroupBy) == 0 {
		rows = 1
	}
	root := &PlanNode{
		Op:       "query",
		Rows:     rows,
		Wall:     time.Since(queryStart),
		Children: []*PlanNode{node},
	}
	if o.Stats != nil {
		recordTree(o.Stats, root)
	}
	return &ExplainResult{Root: root}, nil
}

// aggregateRowSharded renders one result row through the ShardedQuery
// API — the partitioned twin of aggregateRowQuery. Each aggregate plans
// its own shard fan-out (pruned shards recorded in the stats), and SUM
// and AVG use the one-pass SUM+COUNT merge.
func aggregateRowSharded(ctx context.Context, cat *catalog.Catalog, sels []SelectExpr, sq *bpagg.ShardedQuery) ([]string, error) {
	row := make([]string, len(sels))
	for i, s := range sels {
		switch s.Func {
		case CountStar:
			cnt, err := sq.CountRowsContext(ctx)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Count:
			cnt, err := sq.CountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Sum:
			sum, cnt, err := sq.SumCountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = cat.FormatSum(s.Column, sum, cnt)
		case Avg:
			sum, cnt, err := sq.SumCountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = cat.FormatAvg(s.Column, sum, cnt)
		case Min:
			v, ok, err := sq.MinContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Max:
			v, ok, err := sq.MaxContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Median:
			v, ok, err := sq.MedianContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Quantile:
			v, ok, err := sq.QuantileContext(ctx, s.Column, s.Arg)
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

// aggregateRowShardedRange renders one result row through the
// ShardedRangeQuery API — the row-position twin of aggregateRowSharded.
// Each aggregate plans its own fan-out, pruning shards outside the range
// alongside the predicate bounds; SUM and AVG merge 128-bit partials so
// overflow surfaces exactly like the flat engine.
func aggregateRowShardedRange(ctx context.Context, cat *catalog.Catalog, sels []SelectExpr, rq *bpagg.ShardedRangeQuery) ([]string, error) {
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

// shardedGroupedRows renders the grouped result through the
// ShardedGrouped API — per-shard partitions merged by sorted key. The
// NULL-tolerant Ok variants keep all-NULL groups rendering as NULL,
// matching the flat executor cell for cell.
func shardedGroupedRows(ctx context.Context, cat *catalog.Catalog, q *Query, g *bpagg.ShardedGrouped) ([][]string, error) {
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
		cells, err := shardedGroupedCells(ctx, cat, g, s, counts)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			rows[i] = append(rows[i], cells[i])
		}
	}
	return rows, nil
}

func shardedGroupedCells(ctx context.Context, cat *catalog.Catalog, g *bpagg.ShardedGrouped,
	s SelectExpr, counts []uint64) ([]string, error) {
	out := make([]string, g.Len())
	if s.Func == CountStar {
		for i := range out {
			out[i] = fmt.Sprintf("%d", counts[i])
		}
		return out, nil
	}
	switch s.Func {
	case Count:
		nn, err := g.NonNullCountContext(ctx, s.Column)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = fmt.Sprintf("%d", nn[i])
		}
	case Sum, Avg:
		sums, err := g.SumContext(ctx, s.Column)
		if err != nil {
			return nil, err
		}
		nn, err := g.NonNullCountContext(ctx, s.Column)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if s.Func == Sum {
				out[i] = cat.FormatSum(s.Column, sums[i], nn[i])
			} else {
				out[i] = cat.FormatAvg(s.Column, sums[i], nn[i])
			}
		}
	case Min, Max:
		var vals []uint64
		var oks []bool
		var err error
		if s.Func == Min {
			vals, oks, err = g.MinOkContext(ctx, s.Column)
		} else {
			vals, oks, err = g.MaxOkContext(ctx, s.Column)
		}
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = formatOpt(cat, s.Column, vals[i], oks[i])
		}
	case Median:
		vals, oks, err := g.MedianOkContext(ctx, s.Column)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = formatOpt(cat, s.Column, vals[i], oks[i])
		}
	case Quantile:
		vals, oks, err := g.QuantileOkContext(ctx, s.Column, s.Arg)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = formatOpt(cat, s.Column, vals[i], oks[i])
		}
	default:
		return nil, fmt.Errorf("sql: unsupported aggregate %v", s.Func)
	}
	return out, nil
}
