package bpagg

import (
	"context"
	"fmt"
	"slices"

	"bpagg/internal/bitvec"
	"bpagg/internal/parallel"
)

// ShardedGrouped is a query partitioned by the distinct values of one or
// more grouping columns. Following the paper's wide-table approach (§III,
// [11], [12]), grouping columns are materialized and dictionary-encoded,
// so GROUP BY reduces to refining the query's filter into one selection
// per distinct group key. Multi-column keys pack each column's code into
// one uint64 composite (first column in the high bits), so the columns'
// combined width must fit 64 bits.
//
// Every live part runs one pipeline, in one traversal of its grouping
// columns over whatever its selection is — fresh, materialized or a row
// range's mask (DESIGN.md §12): each window of the first column is
// visited once and its filter word split across the codes present (a
// bit-tree descent on VBP, a delimiter peel on HBP); every further column
// refines those (key, word) entries; and a key index maps the final
// packed keys to groups. The result is a sparse segment-major run list of
// (group, selection word), or the banks of the aggregates the statement
// named. Only the index depends on the key width: direct-mapped up to
// core.DirectKeyBits packed bits, open-addressing hashed beyond, up to
// MaxSinglePassGroups keys. A dense bitmap is built per group only on
// demand (Selection).
//
// The per-part key sets merge into one sorted global key list, and every
// per-group answer folds the parts' exact partials — one bank per part:
// 128-bit sums, extremes with presence flags, non-NULL counts — into key
// order through parallel.Bank.Fold; a per-group rank is one radix descent
// over every part's partition at once. Rows NULL in a grouping column join no group. Results are
// bit-identical across key widths, part splits and thread counts, and
// concurrent aggregates over one Grouped are safe.
type ShardedGrouped struct {
	q      *shardState
	widths []int
	keys   []uint64     // global sorted key union
	parts  []*groupPart // per live shard, in shard order
	pos    [][]int32    // pos[p][gi] = global index of parts[p]'s group gi; nil for one part
	base   []int        // base[p] = first global row of parts[p]'s shard
	rows   int          // the store's rows, the length of a group's Selection
	// named are the aggregates GroupByAggsContext named (nil for
	// GroupByContext), and answers their answers, parallel to them.
	named   []aggCall
	answers []groupAnswer
}

// GroupByContext partitions the selection — within the row range, for a
// range view — by the named columns' distinct values, honoring ctx. Every
// live shard partitions independently (a local range partitions its own
// mask ∧ filter) and the key sets union in sorted order. A shard past the
// key budget fails the query with ErrGroupCardinality.
func (f *fanOut) GroupByContext(ctx context.Context, columns ...string) (*ShardedGrouped, error) {
	return f.groupBy(ctx, columns, nil)
}

// GroupByAggsContext is GroupByContext for the named aggregates alone: one
// pass per shard banks them all, and before it returns every part's
// banks merge and each rank runs its one descent. Row reads a group's
// answers; the per-group methods answer the named aggregates and COUNT(*),
// and asking for another is an error. A named COUNT(*) records one
// aggregate per group.
func (f *fanOut) GroupByAggsContext(ctx context.Context, columns []string, aggs []GroupAgg) (*ShardedGrouped, error) {
	calls := make([]aggCall, len(aggs))
	for i, a := range aggs {
		var err error
		if calls[i], err = f.st.aggCall(a); err != nil {
			return nil, err
		}
	}
	g, err := f.groupBy(ctx, columns, calls)
	if err != nil {
		return nil, err
	}
	answers := make([]groupAnswer, len(calls))
	for i, c := range calls {
		if j := slices.Index(calls[:i], c); j >= 0 {
			answers[i] = answers[j] // AVG beside a SUM of the same column
		} else if answers[i], err = g.merge(ctx, c); err != nil {
			return nil, err
		}
	}
	g.named, g.answers = calls, answers
	return g, nil
}

// groupBy runs every live shard's partition — for the named aggregates,
// or keeping the run list when named is nil — and indexes its groups into
// the global key list.
func (f *fanOut) groupBy(ctx context.Context, columns []string, named []aggCall) (*ShardedGrouped, error) {
	widths, err := f.groupWidths(columns)
	if err != nil {
		return nil, err
	}
	p := f.plan(named, columns)
	parts := make([]*groupPart, len(p.parts))
	base := make([]int, len(p.parts))
	err = f.fan(ctx, p, execOptions(f.execs).Threads, func(f *fanOut, ctx context.Context, slot int) (err error) {
		v := f.view(slot)
		base[slot] = p.parts[slot].shard * f.st.shardRows
		parts[slot], err = v.groupBy(ctx, columns, named)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Union the per-shard key sets (each already ascending) into the
	// global sorted key list — one shard's list is the union already —
	// then index every shard group into it by walking both in step.
	var keys []uint64
	if len(parts) == 1 {
		keys = parts[0].hp.Keys
	} else {
		for _, part := range parts {
			keys = append(keys, part.hp.Keys...)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	var pos [][]int32 // one part's groups are the global ones
	if len(parts) > 1 {
		pos = make([][]int32, len(parts))
	}
	for p := range pos {
		part := parts[p]
		pos[p] = make([]int32, len(part.hp.Keys))
		i := 0
		for gi, k := range part.hp.Keys {
			for keys[i] != k {
				i++
			}
			pos[p][gi] = int32(i)
		}
	}
	return &ShardedGrouped{q: f.shardState, widths: widths, keys: keys, parts: parts, pos: pos, base: base, rows: f.st.rows}, nil
}

// groupWidths resolves the grouping columns' code widths and checks that
// the composite key packs into one word.
func (f *fanOut) groupWidths(columns []string) ([]int, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("bpagg: GROUP BY needs at least one column")
	}
	widths := make([]int, len(columns))
	total := 0
	for i, column := range columns {
		idx, err := f.st.specErr(column)
		if err != nil {
			return nil, err
		}
		widths[i] = f.st.specs[idx].k
		total += widths[i]
	}
	if total > 64 {
		return nil, fmt.Errorf("bpagg: composite group key is %d bits wide — keys must pack into 64 bits", total)
	}
	return widths, nil
}

// Len returns the number of groups.
func (g *ShardedGrouped) Len() int { return len(g.keys) }

// Strategy reports which key index the packed key width selects (EXPLAIN
// ANALYZE support) — the one every live shard used, and the one a fully
// pruned query would have.
func (g *ShardedGrouped) Strategy() GroupStrategy { return groupStrategy(g.widths) }

// Keys returns the distinct group keys in ascending order. With one
// grouping column a key is the column's code; with several it is the
// packed composite (first column in the high bits). All per-group result
// slices are parallel to it.
func (g *ShardedGrouped) Keys() []uint64 {
	return append([]uint64(nil), g.keys...)
}

// KeyParts unpacks group i's key into one code per grouping column.
func (g *ShardedGrouped) KeyParts(i int) []uint64 {
	return unpackKey(g.keys[i], g.widths)
}

// Selection returns group i's rows (the query filter intersected with key
// equality) as a fresh bitmap over the store's rows, which the caller
// owns: each part's group rows written at its shard's row base. The
// partitions keep selections sparse, so every call builds an n/8-byte
// bitmap; prefer the bulk aggregates, which never materialize.
func (g *ShardedGrouped) Selection(i int) *Bitmap {
	out := bitvec.New(g.rows)
	for p, part := range g.parts {
		gi, ok := i, true
		if g.pos != nil {
			gi, ok = slices.BinarySearch(g.pos[p], int32(i))
		}
		if ok {
			depositAt(out, g.base[p], part.hp.Materialize(gi))
		}
	}
	return &Bitmap{b: out}
}

// groupAnswer is one aggregate's answer per group, in group order: its
// bank and, under a SUM or AVG, the bank of the column's non-NULL counts.
type groupAnswer struct{ b, n *parallel.Bank }

// cell is group i's answer to c as a scalar statement's partial.
func (a groupAnswer) cell(c aggCall, i int) partial {
	switch {
	case c.op <= opCount:
		return partial{cnt: a.b.Count[i]}
	case c.op <= opSumCount:
		return partial{hi: a.b.His[i], lo: a.b.Los[i], cnt: a.n.Count[i]}
	}
	return partial{lo: a.b.Best[i], ok: a.b.Any[i]}
}

// Row writes group i's answers to the aggregates GroupByAggsContext named
// into dst[:0], parallel to them, and returns it: each cell as in
// AggsContext's row, with an overflowing SUM or AVG's Err an
// *OverflowError that carries the group's key. A GroupByContext result
// names none. Rows read answers made before GroupByAggsContext returned,
// so concurrent reads are safe.
func (g *ShardedGrouped) Row(i int, dst []AggResult) []AggResult {
	dst = slices.Grow(dst[:0], len(g.named))
	for j, c := range g.named {
		r := c.result(g.answers[j].cell(c, i))
		if ov, ok := r.Err.(*OverflowError); ok {
			ov.Group = g.KeyParts(i)
		}
		dst = append(dst, r)
	}
	return dst
}

// answer is aggregate c's answer per group, honoring ctx: the statement's
// when it named c, else merged from every part now. A statement's groups
// answer only what it named, and COUNT(*).
func (g *ShardedGrouped) answer(ctx context.Context, c aggCall) (groupAnswer, error) {
	if err := g.q.st.checkCall(&c); err != nil {
		return groupAnswer{}, err
	}
	if err := orBackground(ctx).Err(); err != nil {
		return groupAnswer{}, err
	}
	if j := slices.Index(g.named, c); j >= 0 {
		return g.answers[j], nil
	}
	if g.named != nil && c.op != opCountRows {
		return groupAnswer{}, fmt.Errorf("bpagg: %s(%s) was not named when the groups were built", aggTable[c.op].name, c.column)
	}
	return g.merge(ctx, c)
}

// merge answers c over every part: one radix descent for a rank, else
// every part's bank folded into group order, and a SUM's non-NULL counts
// beside it.
func (g *ShardedGrouped) merge(ctx context.Context, c aggCall) (a groupAnswer, err error) {
	switch {
	case c.isRank():
		a.b, err = g.rank(ctx, c)
	case c.op == opSum:
		if a.b, err = g.fold(ctx, c); err == nil {
			a.n, err = g.fold(ctx, aggCall{op: opCount, column: c.column})
		}
	default:
		a.b, err = g.fold(ctx, c)
	}
	return a, err
}

// fold merges the parts' banks of non-rank aggregate c through the bank's
// own fold; one part's bank is the answer as it is.
func (g *ShardedGrouped) fold(ctx context.Context, c aggCall) (*parallel.Bank, error) {
	if len(g.parts) == 1 {
		return g.parts[0].bank(ctx, c)
	}
	out := parallel.NewBank(parallel.Measure{Op: aggTable[c.op].measure}, len(g.keys))
	for p, part := range g.parts {
		b, err := part.bank(ctx, c)
		if err != nil {
			return nil, err
		}
		out.Fold(b, g.pos[p])
	}
	return out, nil
}

// rank answers one order statistic per group as a Best/Any bank: c's rank
// function maps a group's non-NULL count, summed over the parts, to the
// target rank (a group with no values has Any false). Every live part's
// partition is one part of a single radix descent, whose rounds sum each
// group's counts across the parts.
func (g *ShardedGrouped) rank(ctx context.Context, c aggCall) (*parallel.Bank, error) {
	parts := make([]parallel.RankPart, len(g.parts))
	var o parallel.Options
	for p, part := range g.parts {
		parts[p] = parallel.RankPart{Col: groupCol(part.q.t.cols[c.column]), HP: part.hp}
		if g.pos != nil {
			parts[p].Slot = g.pos[p]
		}
		o = part.opts()
	}
	vals, oks, err := parallel.RankCtx(orBackground(ctx), parts, len(g.keys), c.rankOf, o)
	return &parallel.Bank{Best: vals, Any: oks}, wrapExecErr(err)
}

// owned is s for the caller to keep: a copy when it is the statement's
// answer, which later reads see again.
func owned[T any](g *ShardedGrouped, s []T) []T {
	if g.named != nil {
		return slices.Clone(s)
	}
	return s
}

// CountContext returns each group's row count, honoring ctx. It records
// one aggregate per group when the statement did not name COUNT(*).
func (g *ShardedGrouped) CountContext(ctx context.Context) ([]uint64, error) {
	a, err := g.answer(ctx, aggCall{op: opCountRows})
	if err != nil {
		return nil, err
	}
	return slices.Clone(a.b.Count), nil // one part's are its partition's own
}

// SumContext aggregates SUM of the named column per group, honoring ctx.
// A group whose merged total exceeds uint64 returns an *OverflowError
// carrying the exact 128-bit total and the offending group's key — the
// first such group in key order, as on one part.
func (g *ShardedGrouped) SumContext(ctx context.Context, column string) ([]uint64, error) {
	a, err := g.answer(ctx, aggCall{op: opSum, column: column})
	if err != nil {
		return nil, err
	}
	return groupSums64(a.b.His, owned(g, a.b.Los), g.KeyParts)
}

// AvgContext aggregates AVG of the named column per group, honoring ctx.
// The quotient divides the exact merged sum by the merged non-NULL count,
// so it is bit-identical to one part's per-group AVG.
func (g *ShardedGrouped) AvgContext(ctx context.Context, column string) ([]float64, error) {
	a, err := g.answer(ctx, aggCall{op: opSum, column: column})
	if err != nil {
		return nil, err
	}
	sums, err := groupSums64(a.b.His, a.b.Los, g.KeyParts)
	if err != nil {
		return nil, err
	}
	return groupAvgs(sums, a.n.Count), nil
}

// values answers a MIN, MAX or rank per group with presence flags.
func (g *ShardedGrouped) values(ctx context.Context, c aggCall) ([]uint64, []bool, error) {
	a, err := g.answer(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	return owned(g, a.b.Best), owned(g, a.b.Any), nil
}

// MinContext aggregates MIN of the named column per group, honoring ctx.
func (g *ShardedGrouped) MinContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.values(ctx, aggCall{op: opMin, column: column}))
}

// MaxContext aggregates MAX of the named column per group, honoring ctx.
func (g *ShardedGrouped) MaxContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.values(ctx, aggCall{op: opMax, column: column}))
}

// MedianOkContext answers the lower MEDIAN of the named column per group,
// honoring ctx, with ok[i]=false for a group with no non-NULL value
// rather than MedianContext's error.
func (g *ShardedGrouped) MedianOkContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return g.values(ctx, aggCall{op: opMedian, column: column})
}

// MedianContext aggregates the lower MEDIAN of the named column per
// group, honoring ctx.
func (g *ShardedGrouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.MedianOkContext(ctx, column))
}
