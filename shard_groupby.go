package bpagg

import (
	"context"
	"fmt"
	"math/bits"
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
// per-group answer merges the parts' exact partials (128-bit sums,
// extremes with presence flags, non-NULL counts) in ascending key order;
// a per-group rank is one radix descent over every part's partition at
// once. Rows NULL in a grouping column join no group. Results are
// bit-identical across key widths, part splits and thread counts, and
// concurrent aggregates over one Grouped are safe.
type ShardedGrouped struct {
	q      *shardState
	widths []int
	keys   []uint64     // global sorted key union
	parts  []*groupPart // per live shard, in shard order
	pos    [][]int32    // pos[p][gi] = global index of parts[p]'s group gi
	base   []int        // base[p] = first global row of parts[p]'s shard
	rows   int          // the store's rows, the length of a group's Selection
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
// pass per shard answers them all, and asking for another is an error.
// COUNT(*) is the partition's own count, named or not.
func (f *fanOut) GroupByAggsContext(ctx context.Context, columns []string, aggs []GroupAgg) (*ShardedGrouped, error) {
	named := make([]aggCall, 0, 2*len(aggs))
	for _, a := range aggs {
		c, err := f.st.aggCall(a)
		switch {
		case err != nil:
			return nil, err
		case c.op == opCountRows:
			continue
		case c.op == opSum: // SUM and AVG also answer the column's COUNT
			named = append(named, aggCall{op: opCount, column: c.column})
		}
		named = append(named, c)
	}
	return f.groupBy(ctx, columns, named)
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
	pos := make([][]int32, len(parts))
	for p, part := range parts {
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
		if gi, ok := slices.BinarySearch(g.pos[p], int32(i)); ok {
			depositAt(out, g.base[p], part.hp.Materialize(gi))
		}
	}
	return &Bitmap{b: out}
}

// addCounts merges one per-group count vector per shard partition into
// global key order.
func (g *ShardedGrouped) addCounts(counts func(part *groupPart) ([]uint64, error)) ([]uint64, error) {
	out := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		c, err := counts(part)
		if err != nil {
			return nil, err
		}
		for gi, v := range c {
			out[g.pos[p][gi]] += v
		}
	}
	return out, nil
}

// CountContext returns each group's row count, honoring ctx.
func (g *ShardedGrouped) CountContext(ctx context.Context) ([]uint64, error) {
	if len(g.parts) == 1 { // one partition's groups are the global ones, and its counts a fresh copy
		return g.parts[0].counts(ctx)
	}
	return g.addCounts(func(part *groupPart) ([]uint64, error) { return part.counts(ctx) })
}

// NonNullCountContext returns each group's count of non-NULL values of
// the named measure column, honoring ctx — COUNT(col)'s grouped answer
// and AVG's divisor.
func (g *ShardedGrouped) NonNullCountContext(ctx context.Context, column string) ([]uint64, error) {
	return g.addCounts(func(part *groupPart) ([]uint64, error) { return part.nonNullCounts(ctx, column) })
}

// SumContext aggregates SUM of the named column per group, honoring ctx.
// A group whose merged total exceeds uint64 returns an *OverflowError
// carrying the exact 128-bit total and the offending group's key — the
// first such group in key order, as on one part.
func (g *ShardedGrouped) SumContext(ctx context.Context, column string) ([]uint64, error) {
	if len(g.parts) == 1 { // one partition's groups are the global ones
		part := g.parts[0]
		his, los, err := part.sums128(ctx, column)
		if err != nil {
			return nil, err
		}
		if part.named != nil { // the pass's bank, which every later call reads
			los = slices.Clone(los)
		}
		return groupSums64(his, los, g.KeyParts)
	}
	his := make([]uint64, len(g.keys))
	los := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		phis, plos, err := part.sums128(ctx, column)
		if err != nil {
			return nil, err
		}
		for gi := range plos {
			i := g.pos[p][gi]
			var carry uint64
			los[i], carry = bits.Add64(los[i], plos[gi], 0)
			his[i] += phis[gi] + carry
		}
	}
	return groupSums64(his, los, g.KeyParts)
}

// AvgContext aggregates AVG of the named column per group, honoring ctx.
// The quotient divides the exact merged sum by the merged non-NULL count,
// so it is bit-identical to one part's per-group AVG.
func (g *ShardedGrouped) AvgContext(ctx context.Context, column string) ([]float64, error) {
	sums, err := g.SumContext(ctx, column)
	if err != nil {
		return nil, err
	}
	counts, err := g.NonNullCountContext(ctx, column)
	if err != nil {
		return nil, err
	}
	return groupAvgs(sums, counts), nil
}

// extremeOkContext merges the partitions' per-group MIN/MAX partials: a
// group can hold only NULL measure values in one shard while other shards
// carry its values, so absent partials are skipped, not errors.
func (g *ShardedGrouped) extremeOkContext(ctx context.Context, column string, wantMin bool) ([]uint64, []bool, error) {
	out := make([]uint64, len(g.keys))
	found := make([]bool, len(g.keys))
	for p, part := range g.parts {
		vals, anys, err := part.extremes(ctx, column, wantMin)
		if err != nil {
			return nil, nil, err
		}
		for gi, any := range anys {
			if !any {
				continue
			}
			i := g.pos[p][gi]
			if !found[i] || (wantMin && vals[gi] < out[i]) || (!wantMin && vals[gi] > out[i]) {
				out[i] = vals[gi]
			}
			found[i] = true
		}
	}
	return out, found, nil
}

// MinOkContext is the NULL-tolerant twin of MinContext: instead of
// treating an all-NULL group as an invariant violation, it reports
// ok[i]=false for groups with no non-NULL measure values — the semantics
// serving layers need to render NULL cells.
func (g *ShardedGrouped) MinOkContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return g.extremeOkContext(ctx, column, true)
}

// MaxOkContext is the NULL-tolerant twin of MaxContext; see MinOkContext.
func (g *ShardedGrouped) MaxOkContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return g.extremeOkContext(ctx, column, false)
}

// MinContext aggregates MIN of the named column per group, honoring ctx.
func (g *ShardedGrouped) MinContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.extremeOkContext(ctx, column, true))
}

// MaxContext aggregates MAX of the named column per group, honoring ctx.
func (g *ShardedGrouped) MaxContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.extremeOkContext(ctx, column, false))
}

// rankOkContext answers one order statistic per group: c's rank function
// maps a group's non-NULL count, summed over the shards, to the target
// rank (a group with no values reports ok[i]=false rather than an error).
// Every live shard's partition is one part of a single radix descent,
// whose rounds sum each group's counts across the shards.
func (g *ShardedGrouped) rankOkContext(ctx context.Context, c aggCall) ([]uint64, []bool, error) {
	if _, err := g.q.st.specErr(c.column); err != nil {
		return nil, nil, err
	}
	parts := make([]parallel.RankPart, len(g.parts))
	var o parallel.Options
	for p, part := range g.parts {
		if err := part.check(c); err != nil {
			return nil, nil, err
		}
		parts[p] = parallel.RankPart{Col: groupCol(part.q.t.cols[c.column]), HP: part.hp, Slot: g.pos[p]}
		o = part.opts()
	}
	vals, oks, err := parallel.RankCtx(orBackground(ctx), parts, len(g.keys), c.rankOf, o)
	return vals, oks, wrapExecErr(err)
}

// MedianOkContext is the NULL-tolerant twin of MedianContext; see
// MinOkContext.
func (g *ShardedGrouped) MedianOkContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return g.rankOkContext(ctx, aggCall{op: opMedian, column: column})
}

// QuantileOkContext answers the nearest-rank quantile of the named
// column per group, honoring ctx, with ok[i]=false for all-NULL groups.
func (g *ShardedGrouped) QuantileOkContext(ctx context.Context, column string, quantile float64) ([]uint64, []bool, error) {
	if err := checkQuantile(quantile); err != nil {
		return nil, nil, err
	}
	return g.rankOkContext(ctx, aggCall{op: opQuantile, column: column, quantile: quantile})
}

// MedianContext aggregates the lower MEDIAN of the named column per
// group, honoring ctx.
func (g *ShardedGrouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	return allGroups(g.MedianOkContext(ctx, column))
}
