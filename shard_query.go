package bpagg

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"bpagg/internal/parallel"
)

// ShardedQuery is a conjunctive filter plus aggregation over a
// ShardedTable — the partitioned twin of Query. Execution fans out over
// the shards the catalog cannot prune (min/max bounds checked per clause,
// recorded as ShardsScanned/ShardsPruned), runs an ordinary per-shard
// Query on each — so the existing zone pruning, fused pipelines, and
// aggregate caches all apply within a shard — and merges the per-shard
// results in shard order. Merges are order-insensitive (sums accumulate
// in 128 bits, extremes compare), and a rank is one radix descent over
// every live shard's candidates, so every result is bit-identical to the
// flat engine at any thread count.
//
// Each shard's query state is built at its first fan-out and kept for the
// ShardedQuery's lifetime, so a selection one statement materializes
// serves the next exactly as a Query's does on a flat table: a one-shard
// store does the work of the flat engine, no more.
//
// The aggregates are fanOut's, promoted: ShardedRangeQuery shares them.
// AggsContext answers several in one fan-out; each single-aggregate
// method is a statement of one.
type ShardedQuery struct {
	fanOut
}

// ShardedRangeQuery aggregates over a global row range of a ShardedTable.
// See ShardedQuery.Range.
type ShardedRangeQuery struct {
	fanOut
}

// fanOut is the one implementation of every sharded aggregate (DESIGN.md
// §15): plan the live shards, hand each one's view the statement's calls,
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

// shardScratch holds the plan, the statement's calls and their per-shard
// partials and rank parts, reused across a query's fan-outs: a window
// sweep issues one fan-out per window and would otherwise reallocate the
// same small slices every time. Within one fan-out each worker writes only
// its own slots, so reuse is safe.
type shardScratch struct {
	live, rlo, rhi []int
	calls          []aggCall
	parts          []partial // [call][live slot]
	ranks          []parallel.RankPart
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
	return q.fuses(q.liveShards(), column, execOptions(q.execs).access)
}

// fuses reports whether an aggregate over column fuses on every shard of
// the live list under access.
func (f *fanOut) fuses(live []int, column string, access AccessMethod) bool {
	for _, s := range live {
		if !f.shardQuery(s).fusesColumn(column, access) {
			return false
		}
	}
	return true
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
// shards whose catalog bounds can satisfy every clause and, for a range
// view, that overlap the range — with each one's local [lo, hi) slice of
// it in scratch.rlo and rhi, parallel to the live list.
func (f *fanOut) liveShards() []int {
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

// shardQuery returns shard s's kept query state, built on first use and
// forwarded any clause added since. Clauses were validated against the
// store's specs when recorded. Callers size the kept table first
// (growShardQ) and touch one shard per goroutine.
func (f *fanOut) shardQuery(s int) *queryState {
	sq := f.shardQ[s]
	if sq == nil {
		sq = &queryState{t: f.st.shards[s], execs: append([]ExecOption(nil), f.execs...)}
		sq.statsInto(f.stats)
		f.shardQ[s] = sq
	}
	for _, cl := range f.clauses[len(sq.clauses):] {
		sq.where(cl.name, cl.pred)
	}
	return sq
}

// fan executes fn once per slot of the live list through the parallel
// index fan-out (one live shard runs inline on the caller's goroutine);
// the slot gives deterministic result placement. fn asks the slot's view
// directly — one closure between the fan-out and the engine, because a
// multi-shard fan-out runs on a fresh goroutine stack. threads is the
// query's Parallel option, which the caller has resolved.
func (f *fanOut) fan(ctx context.Context, live []int, threads int, fn func(slot int) error) error {
	f.growShardQ()
	return wrapExecErr(parallel.ForEachIndexErr(orBackground(ctx), len(live), threads, fn))
}

// view returns the flat view of the live shard in a slot of the plan: its
// kept state (see shardQuery), cut to the shard's local slice of the range
// when the plan carries one. The view is a value — nothing is allocated
// per shard per aggregate — and the engine is chosen where every flat
// aggregate's is, in flatView.eval.
func (f *fanOut) view(slot int) flatView {
	v := flatView{queryState: f.shardQuery(f.scratch.live[slot]), ranged: f.ranged}
	if f.ranged {
		v.lo, v.hi = f.scratch.rlo[slot], f.scratch.rhi[slot]
	}
	return v
}

// merge folds the per-shard partials in shard order. Addition and
// comparison are order-insensitive and exact, so the result is the flat
// engine's at any thread count; the merge of one partial is that partial.
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

// GroupAgg names an aggregate for AggsContext and GroupByAggsContext: Op
// is COUNT (COUNT(*) when Column is empty, else the column's non-NULL
// rows), SUM or AVG (each also counts the column), MIN, MAX, MEDIAN or
// QUANTILE.
type GroupAgg struct {
	Op, Column string
	Quantile   float64
}

// AggResult is one aggregate's answer in AggsContext's row.
type AggResult struct {
	// Value is a COUNT's count, a SUM's or AVG's sum, or the MIN, MAX,
	// MEDIAN or QUANTILE value.
	Value uint64
	// Count is the column's non-NULL count under a SUM or AVG (AVG is
	// Value/Count).
	Count uint64
	// OK is false when a MIN, MAX, MEDIAN or QUANTILE found no value.
	OK bool
	// Err is the aggregate's own failure: an *OverflowError carrying the
	// exact total of a SUM or AVG past uint64. The other aggregates of the
	// row still answer.
	Err error
}

// AggsContext answers a scalar statement's aggregates, honoring ctx, in
// one plan and one fan-out that visits each live shard once (see aggs).
// The row is parallel to aggs. An unknown aggregate, an unknown column or a
// quantile outside [0, 1] fails the call, as do cancellation and engine
// faults.
func (f *fanOut) AggsContext(ctx context.Context, aggs []GroupAgg) ([]AggResult, error) {
	calls := slices.Grow(f.scratch.calls[:0], len(aggs))
	for _, a := range aggs {
		c, err := f.st.aggCall(a)
		if err != nil {
			return nil, err
		}
		if c.op == opSum { // a row's SUM and AVG carry their count
			c.op = opSumCount
		}
		calls = append(calls, c)
	}
	f.scratch.calls = calls
	row := make([]AggResult, len(calls))
	return row, f.aggs(ctx, row)
}

// aggCall resolves a named aggregate against the store: the op its name
// spells in aggTable (AVG is SUM's; COUNT without a column is COUNT(*)),
// its column, and a QUANTILE's argument.
func (st *ShardedTable) aggCall(a GroupAgg) (aggCall, error) {
	op := slices.IndexFunc(aggTable[:], func(e aggEntry) bool { return e.name == a.Op })
	if a.Op == "AVG" {
		op = int(opSum)
	}
	if op <= 0 { // aggTable[0], opCountRows, is unnamed
		return aggCall{}, fmt.Errorf("bpagg: unknown aggregate %q", a.Op)
	}
	c := aggCall{op: aggOp(op), column: a.Column}
	switch {
	case c.op == opCount && c.column == "":
		c.op = opCountRows
	case c.op == opQuantile:
		c.quantile = a.Quantile
	}
	return c, st.checkCall(&c)
}

// checkCall validates a call against the store: its column (none for
// COUNT(*)) and a QUANTILE's argument.
func (st *ShardedTable) checkCall(c *aggCall) error {
	if c.op != opCountRows {
		if _, err := st.specErr(c.column); err != nil {
			return err
		}
	}
	if c.op == opQuantile {
		return checkQuantile(c.quantile)
	}
	return nil
}

// aggs answers the statement's calls (scratch.calls, validated) in one
// plan and one fan-out (DESIGN.md §15), into out, parallel to them. Each live shard's
// view is visited once and answers every call: a non-rank through eval, a
// rank as the part FilterRankPart cuts from the filter eval would feed it
// (rankFilter). Then each non-rank merges its partials in shard order and
// each rank runs one descent over its parts, its rounds summing the counts
// of every shard; a rank records where the shards' kept states do, into
// the WithStats collector when there is one, else into a CollectStats
// option's.
//
// Fusion is all or nothing per statement: when one call cannot fuse on one
// live shard (a rank is asked under BitParallel, its own gate), every live
// shard materializes its selection before the first call, so the filter is
// scanned once rather than by each fused call. A ranged view with a filter
// cuts its selection once per shard, for every call.
func (f *fanOut) aggs(ctx context.Context, out []AggResult) error {
	ctx, sc := orBackground(ctx), &f.scratch
	live := f.liveShards()
	f.recordPlan(len(live))
	f.growShardQ()
	cfg := execOptions(f.execs)
	materialize, ranked := false, false
	for _, c := range sc.calls {
		access := cfg.access
		if c.op >= opMedian {
			access, ranked = BitParallel, true
		}
		materialize = materialize || !f.ranged && !f.fuses(live, c.column, access)
	}
	o := cfg.par
	if f.stats != nil {
		o.Stats = f.stats
	}
	n, nl := len(sc.calls), len(live)
	if cap(sc.parts) < n*nl {
		sc.parts = make([]partial, n*nl)
	}
	if ranked && cap(sc.ranks) < n*nl {
		sc.ranks = make([]parallel.RankPart, n*nl)
	}
	defer clear(sc.ranks) // rank parts hold their candidate lists: let them go
	err := f.fan(ctx, live, o.Threads, func(slot int) (err error) {
		// The scratch is read through f, so the closure stays small.
		v, sc := f.view(slot), &f.scratch
		nl := len(sc.live)
		switch {
		case materialize:
			v.selection()
		case v.ranged && !v.filterFree():
			v.cut = v.Selection()
		}
		for i := range sc.calls {
			c := &sc.calls[i]
			if c.op < opMedian {
				sc.parts[i*nl+slot], err = v.eval(ctx, c)
			} else {
				col := v.t.cols[c.column]
				sc.ranks[i*nl+slot], err = parallel.FilterRankPart(ctx, groupCol(col), v.rankFilter(col), o)
				err = wrapExecErr(err)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, c := range sc.calls {
		if c.op < opMedian {
			out[i] = c.result(c.merge(sc.parts[i*nl : (i+1)*nl]))
			continue
		}
		vals, oks, err := parallel.RankCtx(ctx, sc.ranks[i*nl:(i+1)*nl], 1, c.rankOf, o)
		if err != nil {
			return wrapExecErr(err)
		}
		out[i] = AggResult{Value: vals[0], OK: oks[0]}
	}
	return nil
}

// result is the public answer of a non-rank call from its merged partial.
func (c aggCall) result(p partial) AggResult {
	switch {
	case c.op <= opCount:
		return AggResult{Value: p.cnt, OK: true}
	case c.op <= opAvg:
		sum, cnt, err := narrowSum(p, nil)
		return AggResult{Value: sum, Count: cnt, OK: true, Err: err}
	}
	return AggResult{Value: p.lo, OK: p.ok}
}

// one answers a single aggregate: a statement of one call, whose cell's
// failure is the call's.
func (f *fanOut) one(ctx context.Context, c aggCall) (AggResult, error) {
	var out [1]AggResult
	if err := f.st.checkCall(&c); err != nil {
		return out[0], err
	}
	f.scratch.calls = append(f.scratch.calls[:0], c)
	err := f.aggs(ctx, out[:])
	return out[0], cmp.Or(err, out[0].Err)
}

// value answers a single MIN, MAX or rank: the value and its presence
// flag.
func (f *fanOut) value(ctx context.Context, c aggCall) (uint64, bool, error) {
	r, err := f.one(ctx, c)
	return r.Value, r.OK, err
}

// CountRowsContext counts the rows passing the filter (COUNT(*)),
// honoring ctx.
func (f *fanOut) CountRowsContext(ctx context.Context) (uint64, error) {
	r, err := f.one(ctx, aggCall{op: opCountRows})
	return r.Value, err
}

// CountRows returns the number of rows passing the filter.
func (f *fanOut) CountRows() uint64 {
	return must(f.CountRowsContext(context.Background()))
}

// CountContext counts selected non-NULL rows of the named column.
func (f *fanOut) CountContext(ctx context.Context, column string) (uint64, error) {
	r, err := f.one(ctx, aggCall{op: opCount, column: column})
	return r.Value, err
}

// Count counts selected non-NULL rows of the named column.
func (f *fanOut) Count(column string) uint64 {
	return must(f.CountContext(context.Background(), column))
}

// SumCountContext aggregates SUM and the column's non-NULL COUNT in one
// fan-out — the shape AVG and SQL formatters need. A total exceeding
// uint64 returns an *OverflowError carrying the exact 128-bit sum, matching
// the flat engine's overflow contract: a shard whose own partial overflows
// reports its exact value the same way, and that merges like any other.
func (f *fanOut) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	r, err := f.one(ctx, aggCall{op: opSumCount, column: column})
	return r.Value, r.Count, err
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
	return must(f.SumContext(context.Background(), column))
}

// AvgContext aggregates AVG over the named column, honoring ctx. The
// divisor is the filtered non-NULL row count, so the merged mean matches
// the flat engine exactly.
func (f *fanOut) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	return avgOf(f.SumCountContext(ctx, column))
}

// Avg aggregates AVG over the named column.
func (f *fanOut) Avg(column string) (float64, bool) {
	return must2(f.AvgContext(context.Background(), column))
}

// MinContext aggregates MIN over the named column, honoring ctx.
func (f *fanOut) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	return f.value(ctx, aggCall{op: opMin, column: column})
}

// MaxContext aggregates MAX over the named column, honoring ctx.
func (f *fanOut) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	return f.value(ctx, aggCall{op: opMax, column: column})
}

// Min aggregates MIN over the named column.
func (f *fanOut) Min(column string) (uint64, bool) {
	return must2(f.MinContext(context.Background(), column))
}

// Max aggregates MAX over the named column.
func (f *fanOut) Max(column string) (uint64, bool) {
	return must2(f.MaxContext(context.Background(), column))
}

// MedianContext aggregates the lower MEDIAN over the named column,
// honoring ctx.
func (f *fanOut) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	return f.value(ctx, aggCall{op: opMedian, column: column})
}

// Median aggregates the lower MEDIAN over the named column.
func (f *fanOut) Median(column string) (uint64, bool) {
	return must2(f.MedianContext(context.Background(), column))
}

// RankContext returns the r-th smallest selected value of the named
// column, honoring ctx.
func (f *fanOut) RankContext(ctx context.Context, column string, r uint64) (uint64, bool, error) {
	return f.value(ctx, aggCall{op: opRank, column: column, rank: r})
}

// Rank returns the r-th smallest selected value of the named column.
func (f *fanOut) Rank(column string, r uint64) (uint64, bool) {
	return must2(f.RankContext(context.Background(), column, r))
}

// QuantileContext returns the quantile-q value of the named column,
// honoring ctx.
func (f *fanOut) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	return f.value(ctx, aggCall{op: opQuantile, column: column, quantile: quantile})
}

// Quantile returns the q-quantile (nearest rank) of the named column.
func (f *fanOut) Quantile(column string, quantile float64) (uint64, bool) {
	return must2(f.QuantileContext(context.Background(), column, quantile))
}
