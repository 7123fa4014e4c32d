package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"bpagg/internal/parallel"
)

// ShardedQuery is a conjunctive filter plus aggregation over a
// ShardedTable — the partitioned twin of Query. Execution fans out over
// the shards the catalog cannot prune (min/max bounds checked per clause,
// recorded as ShardsScanned/ShardsPruned), runs an ordinary per-shard
// Query on each — so the existing zone pruning, fused pipelines, and
// aggregate caches all apply within a shard — and merges the per-shard
// results in shard order. Merges are order-insensitive (sums accumulate
// in 128 bits, extremes compare, ranks binary-search on merged counts),
// so every result is bit-identical to the flat engine at any thread
// count.
//
// Each shard's Query is built at its first fan-out and kept for the
// ShardedQuery's lifetime, so a selection one aggregate materializes
// serves the next exactly as Query.sel does on a flat table: a one-shard
// store does the work of the flat engine, no more.
type ShardedQuery struct {
	st      *ShardedTable
	clauses []shardClause
	execs   []ExecOption
	stats   *StatsCollector
	scratch shardScratch
	shardQ  []*Query // by shard index; nil until the shard's first fan-out
}

// shardScratch holds the per-shard merge buffers, reused across a
// query's fan-outs: window sweeps and rank binary searches issue one
// fan-out per window or probe step and would otherwise reallocate the
// same small slices every time. A ShardedQuery (like Query) serves one
// goroutine at a time, and within one fan-out each worker writes only
// its own slot, so reuse is safe.
type shardScratch struct {
	live, rlo, rhi []int
	u64            [3][]uint64
	oks            []bool
}

// uints returns one of the scratch's zeroed uint64 buffers at length n.
func (s *shardScratch) uints(slot, n int) []uint64 {
	b := s.u64[slot]
	if cap(b) < n {
		b = make([]uint64, n)
		s.u64[slot] = b
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// bools returns the scratch's zeroed bool buffer at length n.
func (s *shardScratch) bools(n int) []bool {
	if cap(s.oks) < n {
		s.oks = make([]bool, n)
	}
	b := s.oks[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// shardClause is one recorded WHERE conjunct: the column (by name and
// specs index, for the shard catalog) and its predicate.
type shardClause struct {
	name string
	col  int
	pred Predicate
}

// Query starts a query over the partitioned store.
func (st *ShardedTable) Query() *ShardedQuery {
	return &ShardedQuery{st: st}
}

// Where adds a conjunctive predicate on the named column. Like
// Query.Where it validates eagerly (unknown columns and oversized
// constants panic) and executes lazily at the next aggregate.
func (q *ShardedQuery) Where(column string, p Predicate) *ShardedQuery {
	idx := q.st.spec(column)
	if idx < 0 {
		panic(fmt.Sprintf("bpagg: unknown column %q", column))
	}
	checkPredFits(p, q.st.specs[idx].bits)
	q.clauses = append(q.clauses, shardClause{name: column, col: idx, pred: p})
	return q
}

// WhereErr is the error-returning twin of Where.
func (q *ShardedQuery) WhereErr(column string, p Predicate) (*ShardedQuery, error) {
	idx := q.st.spec(column)
	if idx < 0 {
		return nil, fmt.Errorf("bpagg: unknown column %q", column)
	}
	if !p.fits(q.st.specs[idx].bits) {
		return nil, fmt.Errorf("bpagg: predicate constant does not fit in %d bits", q.st.specs[idx].bits)
	}
	q.clauses = append(q.clauses, shardClause{name: column, col: idx, pred: p})
	return q, nil
}

// With sets execution options (Parallel, Access) for the aggregates.
// Parallel(n) governs both the shard fan-out width and each per-shard
// query's intra-shard parallelism.
func (q *ShardedQuery) With(opts ...ExecOption) *ShardedQuery {
	q.execs = append(q.execs, opts...)
	for _, sq := range q.shardQ {
		if sq != nil {
			sq.With(opts...)
		}
	}
	return q
}

// WithStats enables per-query statistics collection, including the shard
// counters: every fan-out records how many shards the catalog pruned and
// how many were scanned, and the per-shard queries record their scan and
// aggregate counters into the same collector.
func (q *ShardedQuery) WithStats() *ShardedQuery {
	if q.stats == nil {
		q.WithStatsInto(NewStatsCollector())
	}
	return q
}

// WithStatsInto directs the query's statistics into a caller-supplied
// collector.
func (q *ShardedQuery) WithStatsInto(rec *StatsCollector) *ShardedQuery {
	if rec != nil {
		q.stats = rec
		for _, sq := range q.shardQ {
			if sq != nil {
				sq.WithStatsInto(rec)
			}
		}
	}
	return q
}

// Stats returns a snapshot of the counters collected so far; zero when
// stats were not enabled.
func (q *ShardedQuery) Stats() ExecStats {
	return q.stats.Snapshot()
}

// liveShards runs shard pruning: it returns the indices of the shards
// whose catalog bounds can satisfy every clause (plus any probe clauses),
// in shard order. A column with no non-NULL value in a shard prunes that
// shard for any predicate, since a scan never matches NULL.
func (q *ShardedQuery) liveShards(extra []shardClause) []int {
	live := q.scratch.live[:0]
shards:
	for s := range q.st.shards {
		for _, cls := range [][]shardClause{q.clauses, extra} {
			for _, cl := range cls {
				b := q.st.bounds[s][cl.col]
				if !b.any || !cl.pred.mayMatch(b.min, b.max) {
					continue shards
				}
			}
		}
		live = append(live, s)
	}
	q.scratch.live = live
	return live
}

// recordPlan books one fan-out's pruning verdict.
func (q *ShardedQuery) recordPlan(live int) {
	q.stats.Record(ExecStats{
		ShardsScanned: uint64(live),
		ShardsPruned:  uint64(len(q.st.shards) - live),
	})
}

// plan is liveShards for a fan-out that is about to run: it also records
// ShardsScanned/ShardsPruned.
func (q *ShardedQuery) plan(extra []shardClause) []int {
	live := q.liveShards(extra)
	q.recordPlan(len(live))
	return live
}

// shardQuery returns shard s's kept Query, building it on first use and
// forwarding any clause added since. Callers size q.shardQ first
// (growShardQ) and touch one shard per goroutine.
func (q *ShardedQuery) shardQuery(s int) *Query {
	sq := q.shardQ[s]
	if sq == nil {
		sq = q.st.shards[s].Query().With(q.execs...).WithStatsInto(q.stats)
		q.shardQ[s] = sq
	}
	for _, cl := range q.clauses[len(sq.clauses):] {
		sq.Where(cl.name, cl.pred)
	}
	return sq
}

// growShardQ sizes the kept-query table to the store's current shards.
func (q *ShardedQuery) growShardQ() {
	if n := len(q.st.shards); len(q.shardQ) < n {
		q.shardQ = append(q.shardQ, make([]*Query, n-len(q.shardQ))...)
	}
}

// runShards executes fn once per live shard through the parallel index
// fan-out. fn receives its slot in the live list (for deterministic
// result placement), the shard index, and the shard's Query: the kept
// one, or with probe clauses a fresh one carrying them on top of the
// recorded clauses, so a probe never disturbs a kept selection.
func (q *ShardedQuery) runShards(ctx context.Context, live []int, extra []shardClause,
	fn func(slot, shard int, sq *Query) error) error {
	q.growShardQ()
	threads := execOptions(q.execs).par.Threads
	err := parallel.ForEachIndexErr(orBackground(ctx), len(live), threads, func(i int) error {
		if len(extra) == 0 {
			return fn(i, live[i], q.shardQuery(live[i]))
		}
		sq := q.st.shards[live[i]].Query().With(q.execs...).WithStatsInto(q.stats)
		for _, cl := range q.clauses {
			sq.Where(cl.name, cl.pred)
		}
		for _, cl := range extra {
			sq.Where(cl.name, cl.pred)
		}
		return fn(i, live[i], sq)
	})
	return wrapExecErr(err)
}

// Fused reports whether the next aggregate over the named column (the
// empty string asks about COUNT(*)) would run the fused scan→aggregate
// path on every live shard — Query.Fused asked of each shard the catalog
// cannot prune. It executes and records nothing.
func (q *ShardedQuery) Fused(column string) bool {
	q.growShardQ()
	access := execOptions(q.execs).access
	for _, s := range q.liveShards(nil) {
		if !q.shardQuery(s).fusesColumn(column, access) {
			return false
		}
	}
	return true
}

// MaterializeContext runs the pending Where clauses of every live shard
// now, as two-phase scans into that shard's kept selection, so every
// aggregate that follows consumes the same filter bitmap and none fuses
// — what Query.Selection does on a flat table. A statement that knows one
// of its aggregates cannot fuse calls it first and pays for the scans
// once, whatever order its aggregates run in.
func (q *ShardedQuery) MaterializeContext(ctx context.Context) error {
	return q.runShards(ctx, q.liveShards(nil), nil, func(_, _ int, sq *Query) error {
		sq.Selection()
		return nil
	})
}

// specIdxErr resolves an aggregate target column, as an error.
func (q *ShardedQuery) specIdxErr(column string) (int, error) {
	idx := q.st.spec(column)
	if idx < 0 {
		return -1, fmt.Errorf("bpagg: unknown column %q", column)
	}
	return idx, nil
}

// CountRowsContext counts the rows passing the filter (COUNT(*)),
// honoring ctx.
func (q *ShardedQuery) CountRowsContext(ctx context.Context) (uint64, error) {
	live := q.plan(nil)
	counts := q.scratch.uints(0, len(live))
	err := q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		c, err := sq.CountRowsContext(ctx)
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

// CountRows returns the number of rows passing the filter.
func (q *ShardedQuery) CountRows() uint64 {
	c, err := q.CountRowsContext(context.Background())
	fusedMust(err)
	return c
}

// CountContext counts selected non-NULL rows of the named column.
func (q *ShardedQuery) CountContext(ctx context.Context, column string) (uint64, error) {
	if _, err := q.specIdxErr(column); err != nil {
		return 0, err
	}
	live := q.plan(nil)
	counts := q.scratch.uints(0, len(live))
	err := q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		c, err := sq.CountContext(ctx, column)
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

// Count counts selected non-NULL rows of the named column.
func (q *ShardedQuery) Count(column string) uint64 {
	c, err := q.CountContext(context.Background(), column)
	fusedMust(err)
	return c
}

// sumParts collects each live shard's 128-bit SUM partial. A shard whose
// own partial overflows uint64 reports it as an *OverflowError carrying
// the exact 128-bit value, which merges like any other partial — so the
// merged total (and any merged overflow report) is exact.
func (q *ShardedQuery) sumParts(ctx context.Context, column string) (hi, lo uint64, err error) {
	live := q.plan(nil)
	his := q.scratch.uints(0, len(live))
	los := q.scratch.uints(1, len(live))
	err = q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		v, err := sq.SumContext(ctx, column)
		if err != nil {
			var ov *OverflowError
			if errors.As(err, &ov) {
				his[slot], los[slot] = ov.Hi, ov.Lo
				return nil
			}
			return err
		}
		los[slot] = v
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range los {
		var carry uint64
		lo, carry = bits.Add64(lo, los[i], 0)
		hi += his[i] + carry
	}
	return hi, lo, nil
}

// SumContext aggregates SUM over the named column, honoring ctx. A total
// exceeding uint64 returns an *OverflowError carrying the exact 128-bit
// sum, matching the flat engine's overflow contract.
func (q *ShardedQuery) SumContext(ctx context.Context, column string) (uint64, error) {
	if _, err := q.specIdxErr(column); err != nil {
		return 0, err
	}
	hi, lo, err := q.sumParts(ctx, column)
	if err != nil {
		return 0, err
	}
	if hi != 0 {
		return 0, &OverflowError{Hi: hi, Lo: lo}
	}
	return lo, nil
}

// Sum aggregates SUM over the named column.
func (q *ShardedQuery) Sum(column string) uint64 {
	v, err := q.SumContext(context.Background(), column)
	fusedMust(err)
	return v
}

// SumCountContext aggregates SUM and COUNT over the named column in one
// fan-out.
func (q *ShardedQuery) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	if _, err := q.specIdxErr(column); err != nil {
		return 0, 0, err
	}
	live := q.plan(nil)
	his := q.scratch.uints(0, len(live))
	los := q.scratch.uints(1, len(live))
	cnts := q.scratch.uints(2, len(live))
	err = q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		s, c, err := sq.SumCountContext(ctx, column)
		if err != nil {
			var ov *OverflowError
			if errors.As(err, &ov) {
				his[slot], los[slot] = ov.Hi, ov.Lo
				return nil
			}
			return err
		}
		los[slot], cnts[slot] = s, c
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var hi uint64
	for i := range los {
		var carry uint64
		sum, carry = bits.Add64(sum, los[i], 0)
		hi += his[i] + carry
		cnt += cnts[i]
	}
	if hi != 0 {
		return 0, 0, &OverflowError{Hi: hi, Lo: sum}
	}
	return sum, cnt, nil
}

// extremeContext merges per-shard MIN/MAX partials.
func (q *ShardedQuery) extremeContext(ctx context.Context, column string, wantMin bool) (uint64, bool, error) {
	if _, err := q.specIdxErr(column); err != nil {
		return 0, false, err
	}
	live := q.plan(nil)
	vals := q.scratch.uints(0, len(live))
	oks := q.scratch.bools(len(live))
	err := q.runShards(ctx, live, nil, func(slot, _ int, sq *Query) error {
		var v uint64
		var ok bool
		var err error
		if wantMin {
			v, ok, err = sq.MinContext(ctx, column)
		} else {
			v, ok, err = sq.MaxContext(ctx, column)
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

// MinContext aggregates MIN over the named column, honoring ctx.
func (q *ShardedQuery) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	return q.extremeContext(ctx, column, true)
}

// MaxContext aggregates MAX over the named column, honoring ctx.
func (q *ShardedQuery) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	return q.extremeContext(ctx, column, false)
}

// Min aggregates MIN over the named column.
func (q *ShardedQuery) Min(column string) (uint64, bool) {
	v, ok, err := q.MinContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// Max aggregates MAX over the named column.
func (q *ShardedQuery) Max(column string) (uint64, bool) {
	v, ok, err := q.MaxContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// AvgContext aggregates AVG over the named column, honoring ctx.
func (q *ShardedQuery) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	sum, cnt, err := q.SumCountContext(ctx, column)
	if err != nil {
		return 0, false, err
	}
	if cnt == 0 {
		return 0, false, nil
	}
	return float64(sum) / float64(cnt), true, nil
}

// Avg aggregates AVG over the named column.
func (q *ShardedQuery) Avg(column string) (float64, bool) {
	v, ok, err := q.AvgContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// maxValForBits returns the largest value representable in k bits.
func maxValForBits(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// countLE counts selected rows whose column value is <= v, fanning out
// with the probe clause included in shard pruning — a probe below every
// shard bound scans nothing.
func (q *ShardedQuery) countLE(ctx context.Context, column string, idx int, v uint64) (uint64, error) {
	extra := []shardClause{{name: column, col: idx, pred: LessEq(v)}}
	live := q.plan(extra)
	counts := q.scratch.uints(0, len(live))
	err := q.runShards(ctx, live, extra, func(slot, _ int, sq *Query) error {
		c, err := sq.CountRowsContext(ctx)
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

// ranker is the rank family as Query and RangeQuery both spell it: what
// a rank search hands the question to when one shard holds every row.
type ranker interface {
	MedianContext(ctx context.Context, column string) (uint64, bool, error)
	RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error)
	QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error)
}

// rankSearch finds the r-th smallest selected value. With exactly one
// live shard the merge of one partial is the identity, so the shard's
// own radix descent answers (one). Otherwise it binary-searches the value
// domain: the answer is the smallest v with countLE(v) >= r, which always
// is an actually-present value. Each probe is one counting fan-out, so
// the search costs O(k) fan-outs — the sharded analogue of the radix
// descent's k rendezvous rounds.
func (q *ShardedQuery) rankSearch(ctx context.Context, column string,
	rankOf func(uint64) (uint64, bool), one func(ranker) (uint64, bool, error)) (uint64, bool, error) {
	idx, err := q.specIdxErr(column)
	if err != nil {
		return 0, false, err
	}
	if live := q.liveShards(nil); len(live) == 1 {
		q.recordPlan(1)
		var v uint64
		var ok bool
		err := q.runShards(ctx, live, nil, func(_, _ int, sq *Query) error {
			var err error
			v, ok, err = one(sq)
			return err
		})
		return v, ok, err
	}
	u, err := q.CountContext(ctx, column)
	if err != nil {
		return 0, false, err
	}
	r, ok := rankOf(u)
	if !ok || r < 1 || r > u {
		return 0, false, nil
	}
	lo, hi := uint64(0), maxValForBits(q.st.specs[idx].bits)
	for lo < hi {
		mid := lo + (hi-lo)/2
		cnt, err := q.countLE(ctx, column, idx, mid)
		if err != nil {
			return 0, false, err
		}
		if cnt >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true, nil
}

// MedianContext aggregates the lower MEDIAN over the named column,
// honoring ctx.
func (q *ShardedQuery) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	return q.rankSearch(ctx, column, medianRank,
		func(r ranker) (uint64, bool, error) { return r.MedianContext(ctx, column) })
}

// Median aggregates the lower MEDIAN over the named column.
func (q *ShardedQuery) Median(column string) (uint64, bool) {
	v, ok, err := q.MedianContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// RankContext returns the r-th smallest selected value of the named
// column, honoring ctx.
func (q *ShardedQuery) RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error) {
	return q.rankSearch(ctx, column, func(uint64) (uint64, bool) { return r, true },
		func(rk ranker) (uint64, bool, error) { return rk.RankContext(ctx, column, r) })
}

// Rank returns the r-th smallest selected value of the named column.
func (q *ShardedQuery) Rank(column string, r uint64) (uint64, bool) {
	v, ok, err := q.RankContext(context.Background(), column, r)
	fusedMust(err)
	return v, ok
}

// QuantileContext returns the quantile-q value of the named column,
// honoring ctx.
func (q *ShardedQuery) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	if err := checkQuantile(quantile); err != nil {
		return 0, false, err
	}
	return q.rankSearch(ctx, column, quantileRank(quantile),
		func(r ranker) (uint64, bool, error) { return r.QuantileContext(ctx, column, quantile) })
}

// Quantile returns the q-quantile (nearest rank) of the named column.
func (q *ShardedQuery) Quantile(column string, quantile float64) (uint64, bool) {
	v, ok, err := q.QuantileContext(context.Background(), column, quantile)
	fusedMust(err)
	return v, ok
}
