package sqlmini

import (
	"context"
	"fmt"
	"strings"

	"bpagg"
	"bpagg/internal/catalog"
)

// Fused routing: ungrouped queries whose WHERE conjuncts all translate to
// simple engine predicates run through a bpagg.Query instead of bindWhere,
// so the engine's planner can fuse each aggregate with the scans (no filter
// bitmap, all-match segments served from the per-segment aggregate caches).
// The translation is decided per conjunct; whenever any condition needs
// bitmap machinery (IN-lists) or any aggregate would not fuse (NULLs,
// mismatched window widths), execution falls back to the
// bindWhere + bitmap path unchanged. ExecOptions.Auto only affects that
// fallback: fuse-eligible queries fuse regardless, Auto's bit-parallel
// vs reconstruction choice applying where a filter bitmap exists.

// boundPred is one WHERE conjunct translated into engine predicate space.
type boundPred struct {
	column string
	pred   bpagg.Predicate
}

// bindPreds translates the conjunctive condition list into engine
// predicates — the planner-level twin of bindWhere's literal translation
// (floor/ceil code semantics included). ok is false when a condition
// cannot be expressed as a simple predicate (IN-lists) or when the
// translation errors; callers then fall back to bindWhere, which reports
// the identical error. Conditions that statically match everything or
// nothing become predicates with the same semantics: "nothing" compares
// below code zero, so zone maps prune every segment without touching data.
func bindPreds(cat *catalog.Catalog, conds []Condition) ([]boundPred, bool) {
	out := make([]boundPred, 0, len(conds))
	for _, cond := range conds {
		switch cond.Op {
		case OpIn:
			return nil, false
		case OpBetween:
			lo, err := bindOnePred(cat, Condition{Column: cond.Column, Op: OpGe, Lits: cond.Lits[:1]})
			if err != nil {
				return nil, false
			}
			hi, err := bindOnePred(cat, Condition{Column: cond.Column, Op: OpLe, Lits: cond.Lits[1:2]})
			if err != nil {
				return nil, false
			}
			out = append(out, boundPred{cond.Column, lo}, boundPred{cond.Column, hi})
		default:
			p, err := bindOnePred(cat, cond)
			if err != nil {
				return nil, false
			}
			out = append(out, boundPred{cond.Column, p})
		}
	}
	return out, true
}

// bindOnePred translates a single-literal comparison, mirroring bindOne's
// case analysis exactly but producing a predicate instead of a bitmap.
func bindOnePred(cat *catalog.Catalog, cond Condition) (bpagg.Predicate, error) {
	// Consult the schema, not the table: sharded catalogs have no flat
	// table behind them.
	if cat.Spec(cond.Column) == nil {
		return bpagg.Predicate{}, fmt.Errorf("sql: unknown column %q", cond.Column)
	}
	lit := cond.Lits[0]
	if lit.IsString {
		code, ok, err := cat.StrToCode(cond.Column, lit.Str)
		if err != nil {
			return bpagg.Predicate{}, err
		}
		switch cond.Op {
		case OpEq:
			if !ok {
				return nonePred(), nil
			}
			return bpagg.Equal(code), nil
		case OpNe:
			if !ok {
				return allPred(cat, cond.Column)
			}
			return bpagg.NotEqual(code), nil
		default:
			return bpagg.Predicate{}, fmt.Errorf("sql: only = and != apply to string column %q", cond.Column)
		}
	}

	cr, err := cat.NumToCode(cond.Column, lit.Num)
	if err != nil {
		return bpagg.Predicate{}, err
	}
	switch cond.Op {
	case OpEq:
		if cr.Below || cr.Above || !cr.Exact {
			return nonePred(), nil
		}
		return bpagg.Equal(cr.Floor), nil
	case OpNe:
		if cr.Below || cr.Above || !cr.Exact {
			return allPred(cat, cond.Column)
		}
		return bpagg.NotEqual(cr.Floor), nil
	case OpLt:
		if cr.Below {
			return nonePred(), nil
		}
		if cr.Above {
			return allPred(cat, cond.Column)
		}
		return bpagg.Less(cr.Ceil), nil
	case OpLe:
		if cr.Below {
			return nonePred(), nil
		}
		if cr.Above {
			return allPred(cat, cond.Column)
		}
		return bpagg.LessEq(cr.Floor), nil
	case OpGt:
		if cr.Above {
			return nonePred(), nil
		}
		if cr.Below {
			return allPred(cat, cond.Column)
		}
		return bpagg.Greater(cr.Floor), nil
	case OpGe:
		if cr.Above {
			return nonePred(), nil
		}
		if cr.Below {
			return allPred(cat, cond.Column)
		}
		return bpagg.GreaterEq(cr.Ceil), nil
	}
	return bpagg.Predicate{}, fmt.Errorf("sql: unsupported operator %d", int(cond.Op))
}

// nonePred selects no rows: every code is >= 0, so zone maps prune every
// segment.
func nonePred() bpagg.Predicate { return bpagg.Less(0) }

// allPred selects every row — the predicate form of allNonNull.
func allPred(cat *catalog.Catalog, name string) (bpagg.Predicate, error) {
	max, err := cat.MaxCode(name)
	if err != nil {
		return bpagg.Predicate{}, err
	}
	return bpagg.LessEq(max), nil
}

// buildFusedQuery assembles the engine query for the translated conjuncts,
// directing its stats into the given collector (nil for none).
func buildFusedQuery(cat *catalog.Catalog, bps []boundPred, o ExecOptions, stats *bpagg.StatsCollector) (*bpagg.Query, error) {
	bq := cat.Table.Query()
	if o.Threads > 1 {
		bq.With(bpagg.Parallel(o.Threads))
	}
	// Auto is deliberately NOT applied here: Auto delegates the access-path
	// choice to the planner, and for a fuse-eligible query the fused
	// pipeline is that choice. Ineligible queries fall back to the legacy
	// path, where Auto picks bit-parallel vs reconstruction as before.
	bq.WithStatsInto(stats)
	for _, bp := range bps {
		if _, err := bq.WhereErr(bp.column, bp.pred); err != nil {
			return nil, err
		}
	}
	return bq, nil
}

// queryFusesAll reports whether every SELECT expression would run the
// fused scan→aggregate path on bq. The check never executes anything, so
// a false answer leaves the legacy path's statistics untouched.
func queryFusesAll(bq *bpagg.Query, sels []SelectExpr) bool {
	for _, s := range sels {
		col := s.Column
		if s.Func == CountStar {
			col = ""
		}
		if !bq.Fused(col) {
			return false
		}
	}
	return true
}

// tryFusedRow attempts the fused execution path for an ungrouped query.
// ok is false when the query does not qualify — the caller then runs the
// legacy bitmap path, which also reproduces any binding error.
func tryFusedRow(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions) ([]string, bool, error) {
	bps, ok := bindPreds(cat, q.Where)
	if !ok || len(bps) == 0 {
		return nil, false, nil
	}
	bq, err := buildFusedQuery(cat, bps, o, o.Stats)
	if err != nil {
		return nil, false, nil
	}
	if !queryFusesAll(bq, q.Selects) {
		return nil, false, nil
	}
	row, err := aggregateRowQuery(ctx, cat, q.Selects, bq)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// aggregateRowQuery renders one result row through the fused Query API —
// the fused twin of aggregateRow. SUM and AVG use the one-pass SUM+COUNT
// kernel so formatting never needs a second scan.
func aggregateRowQuery(ctx context.Context, cat *catalog.Catalog, sels []SelectExpr, bq *bpagg.Query) ([]string, error) {
	row := make([]string, len(sels))
	for i, s := range sels {
		switch s.Func {
		case CountStar:
			cnt, err := bq.CountRowsContext(ctx)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Count:
			cnt, err := bq.CountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = fmt.Sprintf("%d", cnt)
		case Sum:
			sum, cnt, err := bq.SumCountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = cat.FormatSum(s.Column, sum, cnt)
		case Avg:
			sum, cnt, err := bq.SumCountContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = cat.FormatAvg(s.Column, sum, cnt)
		case Min:
			v, ok, err := bq.MinContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Max:
			v, ok, err := bq.MaxContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Median:
			v, ok, err := bq.MedianContext(ctx, s.Column)
			if err != nil {
				return nil, err
			}
			row[i] = formatOpt(cat, s.Column, v, ok)
		case Quantile:
			v, ok, err := bq.QuantileContext(ctx, s.Column, s.Arg)
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

// fusedDetail renders the scan+agg plan node's description: the aggregate
// list plus the fused predicate conjunction.
func fusedDetail(q *Query) string {
	if len(q.Where) == 0 {
		return selectList(q)
	}
	conds := make([]string, len(q.Where))
	for i, c := range q.Where {
		conds[i] = c.String()
	}
	return selectList(q) + " where " + strings.Join(conds, " AND ")
}
