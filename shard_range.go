package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
)

// Range restricts the sharded query's aggregates to global rows [lo, hi)
// by position (0-based, half-open; hi clips to the store). Shard s covers
// rows [s·shardRows, s·shardRows+rows(s)) — only the tail shard can be
// partial — so the range translates to one local range per shard, and
// shards entirely outside it prune in the catalog pass alongside the
// predicate-bounds pruning. Each surviving shard answers its local range
// through its own Table.Range (index-served when the per-shard query is
// filter-free), and partials merge in shard order exactly like every
// other sharded aggregate. It panics when lo is negative or hi < lo.
func (q *ShardedQuery) Range(lo, hi int) *ShardedRangeQuery {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bpagg: invalid row range [%d, %d)", lo, hi))
	}
	return &ShardedRangeQuery{q: q, lo: lo, hi: hi}
}

// ShardedRangeQuery aggregates over a global row range of a ShardedTable.
// See ShardedQuery.Range.
type ShardedRangeQuery struct {
	q      *ShardedQuery
	lo, hi int
}

// liveShards prunes shards on catalog bounds (every clause plus any
// probe clauses) and on range overlap. It returns the surviving shard
// indices with each one's local [lo, hi) slice of the global range,
// parallel to the live list.
func (r *ShardedRangeQuery) liveShards(extra []shardClause) (live, los, his []int) {
	st := r.q.st
	live, los, his = r.q.scratch.live[:0], r.q.scratch.rlo[:0], r.q.scratch.rhi[:0]
	glo, ghi := clipRange(r.lo, r.hi, st.rows)
shards:
	for s := range st.shards {
		base := s * st.shardRows
		a, b := glo-base, ghi-base
		if a < 0 {
			a = 0
		}
		if n := st.shards[s].Rows(); b > n {
			b = n
		}
		if a >= b {
			continue
		}
		for _, cls := range [][]shardClause{r.q.clauses, extra} {
			for _, cl := range cls {
				sb := st.bounds[s][cl.col]
				if !sb.any || !cl.pred.mayMatch(sb.min, sb.max) {
					continue shards
				}
			}
		}
		live = append(live, s)
		los = append(los, a)
		his = append(his, b)
	}
	r.q.scratch.live, r.q.scratch.rlo, r.q.scratch.rhi = live, los, his
	return live, los, his
}

// plan is liveShards for a fan-out that is about to run: both prunes
// record in the same ShardsScanned/ShardsPruned counters.
func (r *ShardedRangeQuery) plan(extra []shardClause) (live, los, his []int) {
	live, los, his = r.liveShards(extra)
	r.q.recordPlan(len(live))
	return live, los, his
}

// CountRows returns the number of rows passing the filter within the
// range.
func (r *ShardedRangeQuery) CountRows() uint64 {
	c, err := r.CountRowsContext(context.Background())
	fusedMust(err)
	return c
}

// CountRowsContext is CountRows honoring ctx.
func (r *ShardedRangeQuery) CountRowsContext(ctx context.Context) (uint64, error) {
	live, los, his := r.plan(nil)
	counts := r.q.scratch.uints(0, len(live))
	err := r.q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		c, err := sq.Range(los[slot], his[slot]).CountRowsContext(ctx)
		counts[slot] = c
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Count returns the number of non-NULL rows of the named column within
// the range that pass the filter.
func (r *ShardedRangeQuery) Count(column string) uint64 {
	c, err := r.CountContext(context.Background(), column)
	fusedMust(err)
	return c
}

// CountContext is Count honoring ctx.
func (r *ShardedRangeQuery) CountContext(ctx context.Context, column string) (uint64, error) {
	if _, err := r.q.specIdxErr(column); err != nil {
		return 0, err
	}
	live, los, his := r.plan(nil)
	counts := r.q.scratch.uints(0, len(live))
	err := r.q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		c, err := sq.Range(los[slot], his[slot]).CountContext(ctx, column)
		counts[slot] = c
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Sum aggregates SUM over the named column within the range; overflow
// panics with *OverflowError.
func (r *ShardedRangeQuery) Sum(column string) uint64 {
	v, err := r.SumContext(context.Background(), column)
	fusedMust(err)
	return v
}

// SumContext is Sum honoring ctx; overflow returns *OverflowError with
// the exact 128-bit total merged from the per-shard partials.
func (r *ShardedRangeQuery) SumContext(ctx context.Context, column string) (uint64, error) {
	sum, _, err := r.SumCountContext(ctx, column)
	return sum, err
}

// SumCountContext aggregates SUM and the column's non-NULL COUNT within
// the range in one fan-out — the shape AVG and SQL formatters need.
func (r *ShardedRangeQuery) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	hi, lo, cnt, err := r.sumCountParts(ctx, column)
	if err != nil {
		return 0, 0, err
	}
	if hi != 0 {
		return 0, 0, &OverflowError{Hi: hi, Lo: lo}
	}
	return lo, cnt, nil
}

// sumCountParts merges per-shard 128-bit SUM partials and the column's
// non-NULL counts in one fan-out; a shard-local overflow report merges
// like any other partial.
func (r *ShardedRangeQuery) sumCountParts(ctx context.Context, column string) (hi, lo, cnt uint64, err error) {
	if _, err := r.q.specIdxErr(column); err != nil {
		return 0, 0, 0, err
	}
	live, los, his := r.plan(nil)
	phis := r.q.scratch.uints(0, len(live))
	plos := r.q.scratch.uints(1, len(live))
	cnts := r.q.scratch.uints(2, len(live))
	err = r.q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		rq := sq.Range(los[slot], his[slot])
		c, err := rq.CountContext(ctx, column)
		if err != nil {
			return err
		}
		cnts[slot] = c
		v, err := rq.SumContext(ctx, column)
		if err != nil {
			var ov *OverflowError
			if errors.As(err, &ov) {
				phis[slot], plos[slot] = ov.Hi, ov.Lo
				return nil
			}
			return err
		}
		plos[slot] = v
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range plos {
		var carry uint64
		lo, carry = bits.Add64(lo, plos[i], 0)
		hi += phis[i] + carry
		cnt += cnts[i]
	}
	return hi, lo, cnt, nil
}

// Min aggregates MIN over the named column within the range.
func (r *ShardedRangeQuery) Min(column string) (uint64, bool) {
	v, ok, err := r.MinContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// Max aggregates MAX over the named column within the range.
func (r *ShardedRangeQuery) Max(column string) (uint64, bool) {
	v, ok, err := r.MaxContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// MinContext is Min honoring ctx.
func (r *ShardedRangeQuery) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	return r.extremeContext(ctx, column, true)
}

// MaxContext is Max honoring ctx.
func (r *ShardedRangeQuery) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	return r.extremeContext(ctx, column, false)
}

func (r *ShardedRangeQuery) extremeContext(ctx context.Context, column string, wantMin bool) (uint64, bool, error) {
	if _, err := r.q.specIdxErr(column); err != nil {
		return 0, false, err
	}
	live, los, his := r.plan(nil)
	vals := r.q.scratch.uints(0, len(live))
	oks := r.q.scratch.bools(len(live))
	err := r.q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		rq := sq.Range(los[slot], his[slot])
		var v uint64
		var ok bool
		var err error
		if wantMin {
			v, ok, err = rq.MinContext(ctx, column)
		} else {
			v, ok, err = rq.MaxContext(ctx, column)
		}
		vals[slot], oks[slot] = v, ok
		return err
	})
	if err != nil {
		return 0, false, err
	}
	var best uint64
	found := false
	for i, ok := range oks {
		if !ok {
			continue
		}
		if !found || (wantMin && vals[i] < best) || (!wantMin && vals[i] > best) {
			best = vals[i]
		}
		found = true
	}
	return best, found, nil
}

// Avg aggregates AVG over the named column within the range.
func (r *ShardedRangeQuery) Avg(column string) (float64, bool) {
	v, ok, err := r.AvgContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// AvgContext is Avg honoring ctx. The count divisor is the filtered
// non-NULL row count, so the merged mean matches the flat engine exactly.
func (r *ShardedRangeQuery) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	hi, lo, cnt, err := r.sumCountParts(ctx, column)
	if err != nil {
		return 0, false, err
	}
	if cnt == 0 {
		return 0, false, nil
	}
	if hi != 0 {
		return 0, false, &OverflowError{Hi: hi, Lo: lo}
	}
	return float64(lo) / float64(cnt), true, nil
}

// countLE counts filtered rows within the range whose column value is
// <= v, with the probe clause participating in shard pruning.
func (r *ShardedRangeQuery) countLE(ctx context.Context, column string, idx int, v uint64) (uint64, error) {
	extra := []shardClause{{name: column, col: idx, pred: LessEq(v)}}
	live, los, his := r.plan(extra)
	counts := r.q.scratch.uints(0, len(live))
	err := r.q.runShards(ctx, live, extra, func(slot, _ int, sq *Query) error {
		c, err := sq.Range(los[slot], his[slot]).CountRowsContext(ctx)
		counts[slot] = c
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// rankSearch is the range-limited twin of ShardedQuery.rankSearch: one
// live shard answers from its own local range, otherwise binary search on
// the value domain with every counting probe restricted to the range.
func (r *ShardedRangeQuery) rankSearch(ctx context.Context, column string,
	rankOf func(uint64) (uint64, bool), one func(ranker) (uint64, bool, error)) (uint64, bool, error) {
	idx, err := r.q.specIdxErr(column)
	if err != nil {
		return 0, false, err
	}
	if live, los, his := r.liveShards(nil); len(live) == 1 {
		r.q.recordPlan(1)
		var v uint64
		var ok bool
		err := r.q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
			var err error
			v, ok, err = one(sq.Range(los[slot], his[slot]))
			return err
		})
		return v, ok, err
	}
	u, err := r.CountContext(ctx, column)
	if err != nil {
		return 0, false, err
	}
	rk, ok := rankOf(u)
	if !ok || rk < 1 || rk > u {
		return 0, false, nil
	}
	lo, hi := uint64(0), maxValForBits(r.q.st.specs[idx].bits)
	for lo < hi {
		mid := lo + (hi-lo)/2
		cnt, err := r.countLE(ctx, column, idx, mid)
		if err != nil {
			return 0, false, err
		}
		if cnt >= rk {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true, nil
}

// Median aggregates the lower MEDIAN over the named column within the
// range.
func (r *ShardedRangeQuery) Median(column string) (uint64, bool) {
	v, ok, err := r.MedianContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// MedianContext is Median honoring ctx.
func (r *ShardedRangeQuery) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	return r.rankSearch(ctx, column, medianRank,
		func(rk ranker) (uint64, bool, error) { return rk.MedianContext(ctx, column) })
}

// Rank returns the rank-th smallest filtered value within the range.
func (r *ShardedRangeQuery) Rank(column string, rank uint64) (uint64, bool) {
	v, ok, err := r.RankContext(context.Background(), column, rank)
	fusedMust(err)
	return v, ok
}

// RankContext is Rank honoring ctx.
func (r *ShardedRangeQuery) RankContext(ctx context.Context, column string, rank uint64) (uint64, bool, error) {
	return r.rankSearch(ctx, column, func(uint64) (uint64, bool) { return rank, true },
		func(rk ranker) (uint64, bool, error) { return rk.RankContext(ctx, column, rank) })
}

// Quantile returns the q-quantile (nearest rank) within the range.
func (r *ShardedRangeQuery) Quantile(column string, quantile float64) (uint64, bool) {
	v, ok, err := r.QuantileContext(context.Background(), column, quantile)
	fusedMust(err)
	return v, ok
}

// QuantileContext is Quantile honoring ctx.
func (r *ShardedRangeQuery) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	if err := checkQuantile(quantile); err != nil {
		return 0, false, err
	}
	return r.rankSearch(ctx, column, quantileRank(quantile),
		func(rk ranker) (uint64, bool, error) { return rk.QuantileContext(ctx, column, quantile) })
}

// Window partitions the store's rows into windows of size rows every step
// rows and aggregates each window — the sharded twin of Query.Window.
// Each window is one ShardedRangeQuery fan-out, so catalog pruning and
// local-range translation apply per window. It panics unless size and
// step are at least 1.
func (q *ShardedQuery) Window(size, step int) *ShardedWindowQuery {
	if size < 1 || step < 1 {
		panic(fmt.Sprintf("bpagg: invalid window size %d step %d", size, step))
	}
	return &ShardedWindowQuery{q: q, size: size, step: step}
}

// ShardedWindowQuery aggregates per window over a ShardedTable. Windows
// start at rows 0, step, 2·step, … while the start is below the store's
// row count; an empty store yields empty result slices.
type ShardedWindowQuery struct {
	q          *ShardedQuery
	size, step int
}

// windows enumerates the window start offsets.
func (w *ShardedWindowQuery) windows() []int {
	starts := []int{}
	for b := 0; b < w.q.st.rows; b += w.step {
		starts = append(starts, b)
	}
	return starts
}

// CountRows returns each window's filtered row count.
func (w *ShardedWindowQuery) CountRows() []uint64 {
	out, err := w.CountRowsContext(context.Background())
	fusedMust(err)
	return out
}

// CountRowsContext is CountRows honoring ctx.
func (w *ShardedWindowQuery) CountRowsContext(ctx context.Context) ([]uint64, error) {
	out := []uint64{}
	for _, b := range w.windows() {
		c, err := w.q.Range(b, b+w.size).CountRowsContext(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Sum aggregates SUM of the named column per window.
func (w *ShardedWindowQuery) Sum(column string) []uint64 {
	out, err := w.SumContext(context.Background(), column)
	fusedMust(err)
	return out
}

// SumContext is Sum honoring ctx; an overflowing window returns
// *OverflowError.
func (w *ShardedWindowQuery) SumContext(ctx context.Context, column string) ([]uint64, error) {
	out := []uint64{}
	for _, b := range w.windows() {
		v, err := w.q.Range(b, b+w.size).SumContext(ctx, column)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Min aggregates MIN of the named column per window.
func (w *ShardedWindowQuery) Min(column string) ([]uint64, []bool) {
	out, oks, err := w.MinContext(context.Background(), column)
	fusedMust(err)
	return out, oks
}

// Max aggregates MAX of the named column per window.
func (w *ShardedWindowQuery) Max(column string) ([]uint64, []bool) {
	out, oks, err := w.MaxContext(context.Background(), column)
	fusedMust(err)
	return out, oks
}

// MinContext is Min honoring ctx.
func (w *ShardedWindowQuery) MinContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return w.extremeContext(ctx, column, true)
}

// MaxContext is Max honoring ctx.
func (w *ShardedWindowQuery) MaxContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return w.extremeContext(ctx, column, false)
}

func (w *ShardedWindowQuery) extremeContext(ctx context.Context, column string, wantMin bool) ([]uint64, []bool, error) {
	out, oks := []uint64{}, []bool{}
	for _, b := range w.windows() {
		rq := w.q.Range(b, b+w.size)
		var v uint64
		var any bool
		var err error
		if wantMin {
			v, any, err = rq.MinContext(ctx, column)
		} else {
			v, any, err = rq.MaxContext(ctx, column)
		}
		if err != nil {
			return nil, nil, err
		}
		out, oks = append(out, v), append(oks, any)
	}
	return out, oks, nil
}

// Avg aggregates AVG of the named column per window.
func (w *ShardedWindowQuery) Avg(column string) ([]float64, []bool) {
	out, oks, err := w.AvgContext(context.Background(), column)
	fusedMust(err)
	return out, oks
}

// AvgContext is Avg honoring ctx.
func (w *ShardedWindowQuery) AvgContext(ctx context.Context, column string) ([]float64, []bool, error) {
	out, oks := []float64{}, []bool{}
	for _, b := range w.windows() {
		v, any, err := w.q.Range(b, b+w.size).AvgContext(ctx, column)
		if err != nil {
			return nil, nil, err
		}
		out, oks = append(out, v), append(oks, any)
	}
	return out, oks, nil
}
