package bpagg

import (
	"context"
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
// Each shard's query state is built at its first fan-out and kept for the
// ShardedQuery's lifetime, so a selection one aggregate materializes
// serves the next exactly as a Query's does on a flat table: a one-shard
// store does the work of the flat engine, no more.
//
// The aggregates are fanOut's, promoted: ShardedRangeQuery shares them.
type ShardedQuery struct {
	fanOut
}

// ShardedRangeQuery aggregates over a global row range of a ShardedTable.
// See ShardedQuery.Range.
type ShardedRangeQuery struct {
	fanOut
}

// fanOut is the one implementation of every sharded aggregate (DESIGN.md
// §15): plan the live shards, hand each one's view the aggregate call,
// merge the partials. A row range is a field of the plan, not a
// second implementation: a range view is its query's state plus [lo, hi).
type fanOut struct {
	*shardState
	ranged bool
	lo, hi int // global rows [lo, hi), when ranged
}

// shardState is what a ShardedQuery owns and its range views share: the
// recorded clauses and options, the kept per-shard query states and the
// merge scratch. Like Query it serves one goroutine at a time.
type shardState struct {
	st      *ShardedTable
	clauses []shardClause
	execs   []ExecOption
	stats   *StatsCollector
	scratch shardScratch
	shardQ  []*queryState // by shard index; nil until the shard's first fan-out
}

// shardScratch holds the plan and the per-shard partials, reused across a
// query's fan-outs: window sweeps and rank binary searches issue one
// fan-out per window or probe step and would otherwise reallocate the
// same small slices every time. Within one fan-out each worker writes
// only its own slot, so reuse is safe.
type shardScratch struct {
	live, rlo, rhi []int
	parts          []partial
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
	return &ShardedQuery{fanOut{shardState: &shardState{st: st}}}
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
	idx, err := q.st.specErr(column)
	if err != nil {
		return nil, err
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
			sq.execs = append(sq.execs, opts...)
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
				sq.statsInto(rec)
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

// Range restricts the sharded query's aggregates to global rows [lo, hi)
// by position (0-based, half-open; hi clips to the store). Shard s covers
// rows [s·shardRows, s·shardRows+rows(s)) — only the tail shard can be
// partial — so the range translates to one local range per shard, and
// shards entirely outside it prune in the catalog pass alongside the
// predicate-bounds pruning. Each surviving shard answers its local range
// through its own Query.Range (index-served when the per-shard query is
// filter-free), and partials merge in shard order exactly like every
// other sharded aggregate. It panics when lo is negative or hi < lo.
func (q *ShardedQuery) Range(lo, hi int) *ShardedRangeQuery {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bpagg: invalid row range [%d, %d)", lo, hi))
	}
	return &ShardedRangeQuery{fanOut{shardState: q.shardState, ranged: true, lo: lo, hi: hi}}
}

// Fused reports whether the next aggregate over the named column (the
// empty string asks about COUNT(*)) would run the fused scan→aggregate
// path on every live shard — Query.Fused asked of each shard the catalog
// cannot prune. It executes and records nothing.
func (q *ShardedQuery) Fused(column string) bool {
	q.growShardQ()
	access := execOptions(q.execs).access
	for _, s := range q.liveShards(nil) {
		if !q.shardQuery(s, nil).fusesColumn(column, access) {
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
	live := q.liveShards(nil)
	return q.fan(ctx, live, func(slot int) error {
		q.shardQuery(live[slot], nil).selection()
		return nil
	})
}

// specErr resolves an aggregate, grouping or filter column to its specs
// index, as an error when the store has no such column.
func (st *ShardedTable) specErr(column string) (int, error) {
	idx := st.spec(column)
	if idx < 0 {
		return -1, fmt.Errorf("bpagg: unknown column %q", column)
	}
	return idx, nil
}

// mayMatch reports whether shard s's catalog bounds can satisfy cl. A
// column with no non-NULL value in the shard prunes it for any predicate,
// since a scan never matches NULL.
func (st *ShardedTable) mayMatch(s int, cl *shardClause) bool {
	b := st.bounds[s][cl.col]
	return b.any && cl.pred.mayMatch(b.min, b.max)
}

// liveShards is the shard plan: the indices, in shard order, of the
// shards whose catalog bounds can satisfy every clause (and the probe
// clause of a rank search, if any) and, for a range view, that overlap
// the range — with each one's local [lo, hi) slice of it in scratch.rlo
// and rhi, parallel to the live list.
func (f *fanOut) liveShards(probe *shardClause) []int {
	st, sc := f.st, &f.scratch
	sc.live, sc.rlo, sc.rhi = sc.live[:0], sc.rlo[:0], sc.rhi[:0]
	glo, ghi := clipRange(f.lo, f.hi, st.rows)
shards:
	for s, shard := range st.shards {
		a, b := 0, 0
		if f.ranged {
			base := s * st.shardRows
			if a, b = max(glo-base, 0), min(ghi-base, shard.Rows()); a >= b {
				continue
			}
		}
		if probe != nil && !st.mayMatch(s, probe) {
			continue
		}
		for i := range f.clauses {
			if !st.mayMatch(s, &f.clauses[i]) {
				continue shards
			}
		}
		sc.live = append(sc.live, s)
		if f.ranged {
			sc.rlo, sc.rhi = append(sc.rlo, a), append(sc.rhi, b)
		}
	}
	return sc.live
}

// recordPlan books one fan-out's pruning verdict.
func (f *fanOut) recordPlan(live int) {
	f.stats.Record(ExecStats{
		ShardsScanned: uint64(live),
		ShardsPruned:  uint64(len(f.st.shards) - live),
	})
}

// growShardQ sizes the kept-query table to the store's current shards.
func (f *fanOut) growShardQ() {
	if n := len(f.st.shards); len(f.shardQ) < n {
		f.shardQ = append(f.shardQ, make([]*queryState, n-len(f.shardQ))...)
	}
}

// shardQuery returns shard s's query state: the kept one, built on first
// use and forwarded any clause added since — or, for a rank probe, a fresh
// one carrying the probe clause on top of the recorded clauses, so a probe
// never disturbs a kept selection. Clauses were validated against the
// store's specs when recorded. Callers size the kept table first
// (growShardQ) and touch one shard per goroutine.
func (f *fanOut) shardQuery(s int, probe *shardClause) *queryState {
	sq := f.shardQ[s]
	if sq == nil || probe != nil {
		sq = &queryState{t: f.st.shards[s], execs: append([]ExecOption(nil), f.execs...)}
		sq.statsInto(f.stats)
		if probe == nil {
			f.shardQ[s] = sq
		}
	}
	for _, cl := range f.clauses[len(sq.clauses):] {
		sq.where(cl.name, cl.pred)
	}
	if probe != nil {
		sq.where(probe.name, probe.pred)
	}
	return sq
}

// fan executes fn once per slot of the live list through the parallel
// index fan-out (one live shard runs inline on the caller's goroutine);
// the slot gives deterministic result placement. fn asks the slot's view
// directly — one closure between the fan-out and the engine, because a
// multi-shard fan-out runs on a fresh goroutine stack.
func (f *fanOut) fan(ctx context.Context, live []int, fn func(slot int) error) error {
	f.growShardQ()
	threads := execOptions(f.execs).par.Threads
	return wrapExecErr(parallel.ForEachIndexErr(orBackground(ctx), len(live), threads, fn))
}

// view returns the flat view of the live shard in a slot of the plan: its
// kept state (see shardQuery), cut to the shard's local slice of the range
// when the plan carries one. The view is a value — nothing is allocated
// per shard per aggregate — and the engine is chosen where every flat
// aggregate's is, in flatView.eval.
func (f *fanOut) view(live []int, slot int, probe *shardClause) flatView {
	v := flatView{queryState: f.shardQuery(live[slot], probe), ranged: f.ranged}
	if f.ranged {
		v.lo, v.hi = f.scratch.rlo[slot], f.scratch.rhi[slot]
	}
	return v
}

// merge folds the per-shard partials in shard order. Addition and
// comparison are order-insensitive and exact, so the result is the flat
// engine's at any thread count; the merge of one partial is that partial,
// which is why a rank question with one live shard (the only way a rank
// op gets here) is answered by that shard's own radix descent.
func (c aggCall) merge(parts []partial) (m partial) {
	for _, p := range parts {
		switch {
		case c.op <= opSumCount:
			var carry uint64
			m.lo, carry = bits.Add64(m.lo, p.lo, 0)
			m.hi += p.hi + carry
			m.cnt += p.cnt
		case !p.ok:
		case !m.ok || (c.op == opMax && p.lo > m.lo) || (c.op != opMax && p.lo < m.lo):
			m.lo, m.ok = p.lo, true
		}
	}
	return m
}

// run answers one scalar aggregate: plan, fan out, merge.
func (f *fanOut) run(ctx context.Context, c aggCall, probe *shardClause) (partial, error) {
	if c.op != opCountRows {
		if _, err := f.st.specErr(c.column); err != nil {
			return partial{}, err
		}
	}
	return f.runOn(ctx, c, probe, f.liveShards(probe))
}

// runOn is run over a plan already made, recording its pruning verdict.
func (f *fanOut) runOn(ctx context.Context, c aggCall, probe *shardClause, live []int) (partial, error) {
	f.recordPlan(len(live))
	if cap(f.scratch.parts) < len(live) {
		f.scratch.parts = make([]partial, len(live))
	}
	parts := f.scratch.parts[:len(live)]
	err := f.fan(ctx, live, func(slot int) (err error) {
		v := f.view(live, slot, probe)
		parts[slot], err = v.eval(ctx, &c)
		return err
	})
	if err != nil {
		return partial{}, err
	}
	return c.merge(parts), nil
}

// CountRowsContext counts the rows passing the filter (COUNT(*)),
// honoring ctx.
func (f *fanOut) CountRowsContext(ctx context.Context) (uint64, error) {
	p, err := f.run(ctx, aggCall{op: opCountRows}, nil)
	return p.cnt, err
}

// CountRows returns the number of rows passing the filter.
func (f *fanOut) CountRows() uint64 {
	c, err := f.CountRowsContext(context.Background())
	fusedMust(err)
	return c
}

// CountContext counts selected non-NULL rows of the named column.
func (f *fanOut) CountContext(ctx context.Context, column string) (uint64, error) {
	p, err := f.run(ctx, aggCall{op: opCount, column: column}, nil)
	return p.cnt, err
}

// Count counts selected non-NULL rows of the named column.
func (f *fanOut) Count(column string) uint64 {
	c, err := f.CountContext(context.Background(), column)
	fusedMust(err)
	return c
}

// SumCountContext aggregates SUM and the column's non-NULL COUNT in one
// fan-out — the shape AVG and SQL formatters need. A total exceeding
// uint64 returns an *OverflowError carrying the exact 128-bit sum, matching
// the flat engine's overflow contract: a shard whose own partial overflows
// reports its exact value the same way, and that merges like any other.
func (f *fanOut) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	return narrowSum(f.run(ctx, aggCall{op: opSumCount, column: column}, nil))
}

// SumContext aggregates SUM over the named column, honoring ctx; overflow
// returns *OverflowError (see SumCountContext).
func (f *fanOut) SumContext(ctx context.Context, column string) (uint64, error) {
	sum, _, err := f.SumCountContext(ctx, column)
	return sum, err
}

// Sum aggregates SUM over the named column; overflow panics with
// *OverflowError.
func (f *fanOut) Sum(column string) uint64 {
	v, err := f.SumContext(context.Background(), column)
	fusedMust(err)
	return v
}

// AvgContext aggregates AVG over the named column, honoring ctx. The
// divisor is the filtered non-NULL row count, so the merged mean matches
// the flat engine exactly.
func (f *fanOut) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	return avgOf(f.SumCountContext(ctx, column))
}

// Avg aggregates AVG over the named column.
func (f *fanOut) Avg(column string) (float64, bool) {
	v, ok, err := f.AvgContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// MinContext aggregates MIN over the named column, honoring ctx.
func (f *fanOut) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	p, err := f.run(ctx, aggCall{op: opMin, column: column}, nil)
	return p.lo, p.ok, err
}

// MaxContext aggregates MAX over the named column, honoring ctx.
func (f *fanOut) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	p, err := f.run(ctx, aggCall{op: opMax, column: column}, nil)
	return p.lo, p.ok, err
}

// Min aggregates MIN over the named column.
func (f *fanOut) Min(column string) (uint64, bool) {
	v, ok, err := f.MinContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// Max aggregates MAX over the named column.
func (f *fanOut) Max(column string) (uint64, bool) {
	v, ok, err := f.MaxContext(context.Background(), column)
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

// searchRank returns the smallest k-bit value v with countLE(v) >= r —
// for 1 <= r <= countLE(max) always an actually-present value, the r-th
// smallest. It costs at most k counting probes: the merged analogue of
// the radix descent's k rendezvous rounds.
func searchRank(k int, r uint64, countLE func(v uint64) (uint64, error)) (uint64, error) {
	lo, hi := uint64(0), maxValForBits(k)
	for lo < hi {
		mid := lo + (hi-lo)/2
		cnt, err := countLE(mid)
		if err != nil {
			return 0, err
		}
		if cnt >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// rankSearch finds the r-th smallest selected value. With exactly one
// live shard the shard's own radix descent answers (see merge). Otherwise
// it binary-searches the value domain on merged counts; each probe is one
// counting fan-out whose probe clause takes part in shard pruning, so a
// probe below every shard's bounds scans nothing.
func (f *fanOut) rankSearch(ctx context.Context, c aggCall) (uint64, bool, error) {
	idx, err := f.st.specErr(c.column)
	if err != nil {
		return 0, false, err
	}
	live := f.liveShards(nil)
	if len(live) == 1 {
		p, err := f.runOn(ctx, c, nil, live)
		return p.lo, p.ok, err
	}
	u, err := f.runOn(ctx, aggCall{op: opCount, column: c.column}, nil, live)
	if err != nil {
		return 0, false, err
	}
	r, ok := c.rankOf(u.cnt)
	if !ok || r < 1 || r > u.cnt {
		return 0, false, nil
	}
	probe := shardClause{name: c.column, col: idx}
	v, err := searchRank(f.st.specs[idx].bits, r, func(v uint64) (uint64, error) {
		probe.pred = LessEq(v)
		p, err := f.run(ctx, aggCall{op: opCountRows}, &probe)
		return p.cnt, err
	})
	return v, err == nil, err
}

// MedianContext aggregates the lower MEDIAN over the named column,
// honoring ctx.
func (f *fanOut) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	return f.rankSearch(ctx, aggCall{op: opMedian, column: column})
}

// Median aggregates the lower MEDIAN over the named column.
func (f *fanOut) Median(column string) (uint64, bool) {
	v, ok, err := f.MedianContext(context.Background(), column)
	fusedMust(err)
	return v, ok
}

// RankContext returns the r-th smallest selected value of the named
// column, honoring ctx.
func (f *fanOut) RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error) {
	return f.rankSearch(ctx, aggCall{op: opRank, column: column, rank: r})
}

// Rank returns the r-th smallest selected value of the named column.
func (f *fanOut) Rank(column string, r uint64) (uint64, bool) {
	v, ok, err := f.RankContext(context.Background(), column, r)
	fusedMust(err)
	return v, ok
}

// QuantileContext returns the quantile-q value of the named column,
// honoring ctx.
func (f *fanOut) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	if err := checkQuantile(quantile); err != nil {
		return 0, false, err
	}
	return f.rankSearch(ctx, aggCall{op: opQuantile, column: column, quantile: quantile})
}

// Quantile returns the q-quantile (nearest rank) of the named column.
func (f *fanOut) Quantile(column string, quantile float64) (uint64, bool) {
	v, ok, err := f.QuantileContext(context.Background(), column, quantile)
	fusedMust(err)
	return v, ok
}
