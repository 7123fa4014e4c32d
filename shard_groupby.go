package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"bpagg/internal/parallel"
)

// ShardedGrouped is a ShardedQuery partitioned by grouping columns: each
// live shard runs its own (single-pass or legacy) GROUP BY partition, and
// the per-shard banks merge by sorted key into one global key list. All
// merges are performed in ascending key order over shard-order partials,
// so results are bit-identical to the flat engine at any thread count.
type ShardedGrouped struct {
	q      *ShardedQuery
	cols   []string
	widths []int
	keys   []uint64   // global sorted key union
	parts  []*Grouped // per live shard, in shard order
	pos    [][]int    // pos[p][gi] = global index of parts[p]'s group gi
}

// GroupByContext partitions the query's selection by the named columns'
// distinct values, honoring ctx. Every live shard partitions
// independently (the per-shard engine picks direct/hash/legacy as usual)
// and the key sets union in sorted order.
func (q *ShardedQuery) GroupByContext(ctx context.Context, columns ...string) (*ShardedGrouped, error) {
	widths, err := q.groupWidths(columns)
	if err != nil {
		return nil, err
	}
	return q.groupParts(ctx, columns, widths, q.plan(nil), func(_ int, sq *Query) (*Grouped, error) {
		return sq.GroupByContext(ctx, columns...)
	})
}

// GroupByContext partitions the rows of the range that pass the filter by
// the named columns' distinct values, honoring ctx: every shard the range
// overlaps partitions its local slice (RangeQuery.GroupByContext) and the
// key sets union exactly as for an unrestricted query. Shards outside the
// range prune and count in ShardsPruned.
func (r *ShardedRangeQuery) GroupByContext(ctx context.Context, columns ...string) (*ShardedGrouped, error) {
	widths, err := r.q.groupWidths(columns)
	if err != nil {
		return nil, err
	}
	live, los, his := r.plan(nil)
	return r.q.groupParts(ctx, columns, widths, live, func(slot int, sq *Query) (*Grouped, error) {
		return sq.Range(los[slot], his[slot]).GroupByContext(ctx, columns...)
	})
}

// groupWidths resolves the grouping columns' code widths and checks that
// the composite key packs into one word.
func (q *ShardedQuery) groupWidths(columns []string) ([]int, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("bpagg: GROUP BY needs at least one column")
	}
	widths := make([]int, len(columns))
	total := 0
	for i, column := range columns {
		idx := q.st.spec(column)
		if idx < 0 {
			return nil, fmt.Errorf("bpagg: unknown column %q", column)
		}
		widths[i] = q.st.specs[idx].bits
		total += widths[i]
	}
	if total > 64 {
		return nil, fmt.Errorf("bpagg: composite group key is %d bits wide — keys must pack into 64 bits", total)
	}
	return widths, nil
}

// groupParts partitions every live shard with part and merges the key
// sets.
func (q *ShardedQuery) groupParts(ctx context.Context, columns []string, widths []int, live []int,
	part func(slot int, sq *Query) (*Grouped, error)) (*ShardedGrouped, error) {
	parts := make([]*Grouped, len(live))
	err := q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		g, err := part(slot, sq)
		parts[slot] = g
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
		keys = parts[0].keys
	} else {
		for _, part := range parts {
			keys = append(keys, part.keys...)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		keys = dedupeSorted(keys)
	}
	pos := make([][]int, len(parts))
	for p, part := range parts {
		pos[p] = make([]int, len(part.keys))
		i := 0
		for gi, k := range part.keys {
			for keys[i] != k {
				i++
			}
			pos[p][gi] = i
		}
	}
	return &ShardedGrouped{q: q, cols: columns, widths: widths, keys: keys, parts: parts, pos: pos}, nil
}

// GroupBy partitions the query's current selection by the distinct
// values of the named columns.
func (q *ShardedQuery) GroupBy(columns ...string) *ShardedGrouped {
	g, err := q.GroupByContext(context.Background(), columns...)
	fusedMust(err)
	return g
}

// dedupeSorted removes adjacent duplicates in place.
func dedupeSorted(keys []uint64) []uint64 {
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// Len returns the number of groups.
func (g *ShardedGrouped) Len() int { return len(g.keys) }

// Strategy reports which partition strategy the live shards ran (EXPLAIN
// ANALYZE support): their common single-pass tier, or GroupLegacy as soon
// as one shard fell back to the per-group walk — and when no shard was
// live, since nothing was partitioned.
func (g *ShardedGrouped) Strategy() GroupStrategy {
	if len(g.parts) == 0 {
		return GroupLegacy
	}
	for _, part := range g.parts {
		if part.strategy == GroupLegacy {
			return GroupLegacy
		}
	}
	return g.parts[0].strategy
}

// Keys returns the distinct group keys in ascending order.
func (g *ShardedGrouped) Keys() []uint64 {
	return append([]uint64(nil), g.keys...)
}

// KeyParts unpacks group i's key into one code per grouping column.
func (g *ShardedGrouped) KeyParts(i int) []uint64 {
	parts := make([]uint64, len(g.widths))
	key := g.keys[i]
	for j := len(g.widths) - 1; j >= 0; j-- {
		w := uint(g.widths[j])
		parts[j] = key & (1<<w - 1)
		key >>= w
	}
	return parts
}

// CountContext returns each group's row count, honoring ctx.
func (g *ShardedGrouped) CountContext(ctx context.Context) ([]uint64, error) {
	out := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		counts, err := part.CountContext(ctx)
		if err != nil {
			return nil, err
		}
		for gi, c := range counts {
			out[g.pos[p][gi]] += c
		}
	}
	return out, nil
}

// Count returns each group's row count.
func (g *ShardedGrouped) Count() []uint64 {
	out, err := g.CountContext(context.Background())
	fusedMust(err)
	return out
}

// groupSums128 returns one shard partition's per-group SUM partials in
// full 128-bit precision: the banked kernels expose hi/lo directly, and
// the per-group fallback recovers an overflowing group's exact total from
// its *OverflowError. Keeping partials exact is what makes the merged
// totals (and merged overflow reports) bit-identical to the flat engine.
func groupSums128(ctx context.Context, g *Grouped, column string) (his, los []uint64, err error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, nil, err
	}
	if o, ok := g.banked(col); ok {
		switch {
		case g.hp != nil:
			his, los, err = parallel.HashGroupSumCtx(ctx, measureGroupCol(col), g.hp, o.par)
		case col.layout == VBP:
			his, los, err = parallel.VBPGroupSumCtx(ctx, col.v, g.rawSels(), o.par)
		default:
			his, los, err = parallel.HBPGroupSumCtx(ctx, col.h, g.rawSels(), o.par)
		}
		return his, los, wrapExecErr(err)
	}
	his = make([]uint64, g.Len())
	los = make([]uint64, g.Len())
	for i := 0; i < g.Len(); i++ {
		v, err := col.SumContext(ctx, g.Selection(i), g.q.execs...)
		if err != nil {
			var ov *OverflowError
			if errors.As(err, &ov) {
				his[i], los[i] = ov.Hi, ov.Lo
				continue
			}
			return nil, nil, err
		}
		los[i] = v
	}
	return his, los, nil
}

// SumContext aggregates SUM of the named column per group, honoring ctx.
// A group whose merged total exceeds uint64 returns an *OverflowError
// carrying the exact 128-bit total and the offending group's key — the
// first such group in key order, matching the flat engine.
func (g *ShardedGrouped) SumContext(ctx context.Context, column string) ([]uint64, error) {
	his := make([]uint64, len(g.keys))
	los := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		phis, plos, err := groupSums128(ctx, part, column)
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
	for i, hi := range his {
		if hi != 0 {
			return nil, &OverflowError{Hi: hi, Lo: los[i], Group: g.KeyParts(i)}
		}
	}
	return los, nil
}

// Sum aggregates SUM of the named column per group.
func (g *ShardedGrouped) Sum(column string) []uint64 {
	out, err := g.SumContext(context.Background(), column)
	fusedMust(err)
	return out
}

// groupExtremes returns one shard partition's per-group MIN/MAX partials
// with presence flags (a group can hold only NULL measure values in one
// shard while other shards carry its values).
func groupExtremes(ctx context.Context, g *Grouped, column string, wantMin bool) (vals []uint64, anys []bool, err error) {
	col, err := g.q.colErr(column)
	if err != nil {
		return nil, nil, err
	}
	if o, ok := g.banked(col); ok {
		return g.bankedExtreme(ctx, col, o, wantMin)
	}
	vals = make([]uint64, g.Len())
	anys = make([]bool, g.Len())
	for i := 0; i < g.Len(); i++ {
		var v uint64
		var any bool
		var err error
		if wantMin {
			v, any, err = col.MinContext(ctx, g.Selection(i), g.q.execs...)
		} else {
			v, any, err = col.MaxContext(ctx, g.Selection(i), g.q.execs...)
		}
		if err != nil {
			return nil, nil, err
		}
		vals[i], anys[i] = v, any
	}
	return vals, anys, nil
}

func (g *ShardedGrouped) extremeOkContext(ctx context.Context, column string, wantMin bool) ([]uint64, []bool, error) {
	out := make([]uint64, len(g.keys))
	found := make([]bool, len(g.keys))
	for p, part := range g.parts {
		vals, anys, err := groupExtremes(ctx, part, column, wantMin)
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

func (g *ShardedGrouped) extremeContext(ctx context.Context, column string, wantMin bool) ([]uint64, error) {
	out, found, err := g.extremeOkContext(ctx, column, wantMin)
	if err != nil {
		return nil, err
	}
	for _, ok := range found {
		if !ok {
			return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
		}
	}
	return out, nil
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
	return g.extremeContext(ctx, column, true)
}

// MaxContext aggregates MAX of the named column per group, honoring ctx.
func (g *ShardedGrouped) MaxContext(ctx context.Context, column string) ([]uint64, error) {
	return g.extremeContext(ctx, column, false)
}

// Min aggregates MIN of the named column per group.
func (g *ShardedGrouped) Min(column string) []uint64 {
	out, err := g.MinContext(context.Background(), column)
	fusedMust(err)
	return out
}

// Max aggregates MAX of the named column per group.
func (g *ShardedGrouped) Max(column string) []uint64 {
	out, err := g.MaxContext(context.Background(), column)
	fusedMust(err)
	return out
}

// measureNonNullCounts returns each group's count of non-NULL measure
// values — AVG's divisor. A shard whose measure column carries no NULLs
// contributes its partition's row counts (a divisor read off the
// partition, not an aggregate, so nothing records); otherwise the shard
// counts per group.
func (g *ShardedGrouped) measureNonNullCounts(ctx context.Context, column string) ([]uint64, error) {
	out := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		col, err := part.q.colErr(column)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for gi := range part.keys {
			var c uint64
			if col.nulls == nil {
				c = part.groupCount(gi)
			} else if c, err = col.CountContext(ctx, part.Selection(gi)); err != nil {
				return nil, err
			}
			out[g.pos[p][gi]] += c
		}
	}
	return out, nil
}

// AvgContext aggregates AVG of the named column per group, honoring ctx.
// The quotient divides the exact merged sum by the merged non-NULL count,
// so it is bit-identical to the flat engine's per-group AVG.
func (g *ShardedGrouped) AvgContext(ctx context.Context, column string) ([]float64, error) {
	his := make([]uint64, len(g.keys))
	los := make([]uint64, len(g.keys))
	for p, part := range g.parts {
		phis, plos, err := groupSums128(ctx, part, column)
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
	for i, hi := range his {
		if hi != 0 {
			return nil, &OverflowError{Hi: hi, Lo: los[i], Group: g.KeyParts(i)}
		}
	}
	counts, err := g.measureNonNullCounts(ctx, column)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(g.keys))
	for i, s := range los {
		if counts[i] > 0 {
			out[i] = float64(s) / float64(counts[i])
		}
	}
	return out, nil
}

// Avg aggregates AVG of the named column per group.
func (g *ShardedGrouped) Avg(column string) []float64 {
	out, err := g.AvgContext(context.Background(), column)
	fusedMust(err)
	return out
}

// rankOkContext answers one order statistic per group: rankOf maps a
// group's non-NULL count to the target rank (ok=false when the group has
// no values, reported as ok[i]=false rather than an error). With one live
// shard each group's selection is whole, so the shard column's own radix
// descent answers it (one). Otherwise each group binary-searches the
// value domain, counting per-shard within the group's selection.
func (g *ShardedGrouped) rankOkContext(ctx context.Context, column string, rankOf func(u uint64) (uint64, bool),
	one func(col *Column, sel *Bitmap, execs []ExecOption) (uint64, bool, error)) ([]uint64, []bool, error) {
	ctx = orBackground(ctx)
	idx := g.q.st.spec(column)
	if idx < 0 {
		return nil, nil, fmt.Errorf("bpagg: unknown column %q", column)
	}
	out := make([]uint64, len(g.keys))
	oks := make([]bool, len(g.keys))
	if len(g.parts) == 1 {
		part := g.parts[0]
		col, err := part.q.colErr(column)
		if err != nil {
			return nil, nil, err
		}
		for i := range g.keys {
			if out[i], oks[i], err = one(col, part.Selection(i), part.q.execs); err != nil {
				return nil, nil, err
			}
		}
		return out, oks, nil
	}
	counts, err := g.measureNonNullCounts(ctx, column)
	if err != nil {
		return nil, nil, err
	}
	for i := range g.keys {
		r, ok := rankOf(counts[i])
		if !ok {
			continue
		}
		lo, hi := uint64(0), maxValForBits(g.q.st.specs[idx].bits)
		for lo < hi {
			mid := lo + (hi-lo)/2
			cnt, err := g.groupCountLE(ctx, column, i, mid)
			if err != nil {
				return nil, nil, err
			}
			if cnt >= r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i], oks[i] = lo, true
	}
	return out, oks, nil
}

// MedianContext aggregates the lower MEDIAN of the named column per
// group, honoring ctx.
func (g *ShardedGrouped) MedianContext(ctx context.Context, column string) ([]uint64, error) {
	out, oks, err := g.MedianOkContext(ctx, column)
	if err != nil {
		return nil, err
	}
	for _, ok := range oks {
		if !ok {
			return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
		}
	}
	return out, nil
}

// MedianOkContext is the NULL-tolerant twin of MedianContext; see
// MinOkContext.
func (g *ShardedGrouped) MedianOkContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return g.rankOkContext(ctx, column, medianRank,
		func(col *Column, sel *Bitmap, execs []ExecOption) (uint64, bool, error) {
			return col.MedianContext(ctx, sel, execs...)
		})
}

// QuantileOkContext answers the nearest-rank quantile of the named
// column per group, honoring ctx, with ok[i]=false for all-NULL groups.
func (g *ShardedGrouped) QuantileOkContext(ctx context.Context, column string, quantile float64) ([]uint64, []bool, error) {
	if err := checkQuantile(quantile); err != nil {
		return nil, nil, err
	}
	return g.rankOkContext(ctx, column, quantileRank(quantile),
		func(col *Column, sel *Bitmap, execs []ExecOption) (uint64, bool, error) {
			return col.QuantileContext(ctx, sel, quantile, execs...)
		})
}

// NonNullCountContext returns each group's count of non-NULL values of
// the named measure column, honoring ctx — COUNT(col)'s grouped answer
// and AVG's divisor.
func (g *ShardedGrouped) NonNullCountContext(ctx context.Context, column string) ([]uint64, error) {
	return g.measureNonNullCounts(orBackground(ctx), column)
}

// Median aggregates the lower MEDIAN of the named column per group.
func (g *ShardedGrouped) Median(column string) []uint64 {
	out, err := g.MedianContext(context.Background(), column)
	fusedMust(err)
	return out
}

// groupCountLE counts global group i's selected rows with measure value
// <= v, summed over the shards that contain the group.
func (g *ShardedGrouped) groupCountLE(ctx context.Context, column string, i int, v uint64) (uint64, error) {
	var total uint64
	for p, part := range g.parts {
		for gi, pi := range g.pos[p] {
			if pi != i {
				continue
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			col, err := part.q.colErr(column)
			if err != nil {
				return 0, err
			}
			sel := part.Selection(gi).Clone().And(col.ScanStats(LessEq(v), g.q.stats))
			total += uint64(sel.Count())
		}
	}
	return total, nil
}
