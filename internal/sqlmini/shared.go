package sqlmini

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bpagg"
	"bpagg/internal/catalog"
)

// Shared-scan execution: the multi-query sharing layer under bpaggd's
// batching. Concurrent queries whose WHERE clauses bind to the same
// predicate conjunction form one batch class; the class executes as ONE
// store query — every live shard's selection is materialized once and
// every distinct aggregate across the batch runs once against it —
// instead of N independent scan+aggregate passes. This is the cross-query form of the
// paper's intra-query amortization (tpchQ01_GPU answers NUM_AGGRS
// aggregates per pass; here N queries' aggregates share a pass), and the
// ExecStats of the shared collector prove it: one batch records one scan
// and one driver invocation per distinct aggregate, however many queries
// rode along.

// BatchKey returns the canonical shared-scan class of a query: two
// queries with equal keys select exactly the same rows, so their
// aggregates can be answered from one shared selection. The key is built
// from the *bound* predicates (literals translated to code space with
// the floor/ceil semantics of bindPreds), so textually different but
// semantically identical literals coalesce, and conjunct order never
// matters. ok is false when the query is not batch-eligible: grouped
// queries, EXPLAIN, IN-lists, and WHERE clauses that fail to bind.
func BatchKey(cat *catalog.Catalog, q *Query) (string, bool) {
	if q == nil || q.Explain || len(q.GroupBy) != 0 {
		return "", false
	}
	// rownum-restricted queries are not batch-eligible: the shared
	// selection ignores row position, and they answer in O(1) from the
	// range index individually, so batching buys nothing.
	if rng, _, err := splitRownum(cat, q.Where); err != nil || rng != nil {
		return "", false
	}
	for _, cond := range q.Where {
		if cond.Op == OpIn {
			return "", false
		}
	}
	bps, err := bindPreds(cat, q.Where)
	if err != nil {
		return "", false
	}
	if len(bps) == 0 {
		// No WHERE: every unfiltered ungrouped query shares the all-rows
		// selection.
		return "*", true
	}
	parts := make([]string, len(bps))
	for i, bp := range bps {
		parts[i] = bp.column + " " + bp.pred.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND "), true
}

// SharedResult is one query's outcome within a shared batch. Err is
// per-query: a cell that fails (overflow on one aggregate, an unknown
// column in one SELECT list) fails only the queries that asked for it,
// while batch-wide failures (selection binding, cancellation) fail every
// entry.
type SharedResult struct {
	Res *Result
	Err error
}

// ExecuteShared runs a batch of ungrouped queries belonging to one
// BatchKey class as one store query. The WHERE conjunction is bound and
// materialized once (one scan pass per live shard, charged once to
// o.Stats) and result cells are memoized by aggregate label, so N queries
// asking SUM(price) pay for one SUM kernel invocation. Queries whose own key
// differs from the batch's (a caller bug) fail individually rather than
// corrupting their neighbors' results.
//
// Like ExecuteContext, this is a trust boundary: malformed queries
// return errors, and any panic escaping the engine is recovered so one
// bad batch member cannot take down a serving process.
func ExecuteShared(ctx context.Context, cat *catalog.Catalog, qs []*Query, o ExecOptions) (out []SharedResult) {
	out = make([]SharedResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("sql: internal error executing shared batch: %v", r)
			for i := range out {
				if out[i].Res == nil && out[i].Err == nil {
					out[i].Err = err
				}
			}
		}
	}()

	key0, ok := BatchKey(cat, qs[0])
	if !ok {
		err := badf("sql: query is not batch-eligible")
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	// Defense in depth against mis-grouped batches: a member whose bound
	// WHERE differs from the class leader's must not be answered from the
	// leader's selection.
	for i, q := range qs[1:] {
		if k, ok := BatchKey(cat, q); !ok || k != key0 {
			out[i+1].Err = badf("sql: query does not belong to shared batch class %q", key0)
		}
	}

	sq, err := sharedQuery(ctx, cat, qs[0], o)
	if err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out
	}

	type cell struct {
		val string
		err error
	}
	memo := map[string]cell{}
	for i, q := range qs {
		if out[i].Err != nil {
			continue
		}
		if err := validateSelects(cat, q); err != nil {
			out[i].Err = err
			continue
		}
		row := make([]string, len(q.Selects))
		var qerr error
		for j, s := range q.Selects {
			label := s.Label()
			c, ok := memo[label]
			if !ok {
				v, err := rowCell(ctx, cat, s, sq)
				c = cell{val: v, err: err}
				memo[label] = c
			}
			if c.err != nil {
				qerr = c.err
				break
			}
			row[j] = c.val
		}
		if qerr != nil {
			out[i].Err = qerr
			continue
		}
		out[i].Res = &Result{Headers: headers(q), Rows: [][]string{row}}
	}
	return out
}

// sharedQuery builds the batch's one store query from the class leader's
// WHERE list and materializes every live shard's selection, so each
// memoized cell is a two-phase aggregate over a filter scanned once.
func sharedQuery(ctx context.Context, cat *catalog.Catalog, leader *Query, o ExecOptions) (*bpagg.ShardedQuery, error) {
	preds, err := bindPreds(cat, leader.Where)
	if err != nil {
		return nil, err
	}
	sq, err := buildQuery(cat, preds, o, o.Stats)
	if err != nil {
		return nil, err
	}
	return sq, sq.MaterializeContext(ctx)
}
