package bpagg

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"bpagg/internal/bitvec"
	"bpagg/internal/parallel"
)

// ShardedQuery is a conjunctive filter plus aggregation over a store —
// a ShardedTable, or a Table served as its one-part store (Table.Query).
// Where clauses are recorded, not executed. Execution fans out over the
// parts the catalog cannot prune (min/max bounds checked per clause,
// recorded as ShardsScanned/ShardsPruned) and runs each part's engine on
// it: when the statement fuses (its plan's verdict) each segment's
// filter word flows straight from the predicate lanes into the aggregate
// kernel and no filter bitmap ever exists; otherwise the clauses run as
// independent bit-parallel scans whose selections intersect (paper §II-E)
// and the aggregate runs on the combined filter bit vector. Zone pruning
// and aggregate caches apply within a part. The per-part results merge in
// shard order; merges are order-insensitive (sums accumulate in 128 bits,
// extremes compare), and a rank is one radix descent over every live
// part's candidates, so every result is bit-identical to one part's at
// any thread count.
//
// Each part's query state is built at its first fan-out and kept for the
// query's lifetime, so a selection one statement materializes serves the
// next: a one-part store does the work of one part's engine, no more.
//
// The aggregates are fanOut's, promoted: ShardedRangeQuery shares them.
// AggsContext answers several in one fan-out; each single-aggregate
// method is a statement of one.
type ShardedQuery struct {
	fanOut
}

// ShardedRangeQuery aggregates over a global row range of a store. See
// ShardedQuery.Range.
type ShardedRangeQuery struct {
	fanOut
}

// Query, RangeQuery, Grouped and WindowQuery are the query types by role;
// a Table's query is its one-part store's, so each is its Sharded form.
type (
	Query       = ShardedQuery
	RangeQuery  = ShardedRangeQuery
	Grouped     = ShardedGrouped
	WindowQuery = ShardedWindowQuery
)

// fanOut is the one implementation of every aggregate (DESIGN.md §15):
// plan the statement, hand each live part's view its calls, merge the
// partials. A row range is a field of the plan, not a second
// implementation: a range view is its query's state plus [lo, hi).
type fanOut struct {
	*shardState
	ranged bool
	lo, hi int         // global rows [lo, hi), when ranged
	ep     *tableEpoch // a window sweep's pin on a table-backed store, for all its windows
}

// shardState is what a ShardedQuery owns and its range views share: the
// recorded clauses and options, the kept per-shard query states and the
// merge scratch. It serves one goroutine at a time.
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
	plan  plan
	calls []aggCall
	parts []partial // [call][live slot]
	ranks []parallel.RankPart
}

// plan is a statement's decisions, made once by fanOut.plan before its
// fan-out (DESIGN.md §15); every part's visit reads them and none
// decides again.
type plan struct {
	parts  []planPart  // the live parts, in shard order
	one    [1]planPart // parts' first backing array: a one-part plan allocates nothing
	ep     *tableEpoch // the epoch a ranged plan on a table-backed store pinned, or nil
	ranged bool        // the statement is over a row range
	// index: the statement is a range with no clause, so every call with
	// an index form (COUNT through MAX) reads the prefix-sum index.
	index bool
	// fused is the verdict on the filter every other call reads: the
	// clauses' predicates, or else the part's selection as a bitmap. A
	// scalar statement fuses when every call passes the fusion gate on
	// every live part; a grouped pass when it keeps no run list, no live
	// part holds NULLs in a key column and there is no clause or every
	// live part passes the gate with the first key. All or nothing per
	// statement.
	fused bool
	keep  bool // a grouped pass keeps its run list: for a named rank or a library GroupBy
}

// planPart is one live part: its shard and, for a ranged plan, its local
// slice [lo, hi) of the range.
type planPart struct {
	shard, lo, hi int
}

// shardClause is one recorded WHERE conjunct: the column (by name and
// specs index, for the shard catalog) and its predicate.
type shardClause struct {
	name string
	col  int
	pred Predicate
}

// Query starts a query over the partitioned store. The query and its
// state are one allocation.
func (st *ShardedTable) Query() *ShardedQuery {
	qs := &struct {
		ShardedQuery
		shardState
	}{shardState: shardState{st: st}}
	qs.fanOut.shardState = &qs.shardState
	return &qs.ShardedQuery
}

// Where adds a conjunctive predicate on the named column and returns the
// query for chaining. The clause is validated here (unknown columns and
// oversized constants panic) but executes lazily, at the next aggregate
// that cannot fuse it or at Selection.
func (q *ShardedQuery) Where(column string, p Predicate) *ShardedQuery {
	idx := q.st.spec(column)
	if idx < 0 {
		panic(fmt.Sprintf("bpagg: unknown column %q", column))
	}
	checkPredFits(p, q.st.specs[idx].k)
	q.clauses = append(q.clauses, shardClause{name: column, col: idx, pred: p})
	return q
}

// WhereErr is the error-returning twin of Where: an unknown column name or
// an oversized predicate constant returns an error instead of panicking.
func (q *ShardedQuery) WhereErr(column string, p Predicate) (*ShardedQuery, error) {
	idx, err := q.st.specErr(column)
	if err != nil {
		return nil, err
	}
	if !p.fits(q.st.specs[idx].k) {
		return nil, fmt.Errorf("bpagg: predicate constant does not fit in %d bits", q.st.specs[idx].k)
	}
	q.clauses = append(q.clauses, shardClause{name: column, col: idx, pred: p})
	return q, nil
}

// With sets execution options (Parallel, CollectStats) for the aggregates.
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

// Range restricts the query's aggregates to global rows [lo, hi) by
// position (0-based, half-open; hi clips to the store). Shard s covers
// rows [s·shardRows, s·shardRows+rows(s)) — only the tail shard can be
// partial — so the range translates to one local range per shard, and
// shards entirely outside it prune in the catalog pass alongside the
// predicate-bounds pruning. Each surviving shard answers its local range
// (from its prefix-sum index when its query is filter-free), and partials
// merge in shard order exactly like every other aggregate. It panics when
// lo is negative or hi < lo.
func (q *ShardedQuery) Range(lo, hi int) *ShardedRangeQuery {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bpagg: invalid row range [%d, %d)", lo, hi))
	}
	return &ShardedRangeQuery{fanOut{shardState: q.shardState, ranged: true, lo: lo, hi: hi}}
}

// Fused reports whether the next aggregate over the named column (the
// empty string asks about COUNT(*)) would run the fused scan→aggregate
// path on every part the catalog cannot prune (EXPLAIN support): the
// verdict of the plan of a one-call statement. It executes, materializes
// and records nothing; an unknown column does not fuse.
func (q *ShardedQuery) Fused(column string) bool {
	c := aggCall{op: opCountRows}
	if column != "" {
		c = aggCall{op: opCount, column: column}
	}
	return q.st.checkCall(&c) == nil && q.plan([]aggCall{c}, nil).fused
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
	b := st.shards[s].bounds[cl.col]
	return b.any && cl.pred.mayMatch(b.min, b.max)
}

// plan makes the statement's plan (DESIGN.md §15) in the scratch, for
// calls (validated; none for a Selection) or, when keys names the
// grouping columns (validated), for a GROUP BY of the named calls (nil
// for a library GroupBy): the live parts — the shards whose catalog
// bounds can satisfy every clause and, for a range view, that overlap the
// range, each with its local slice of it — and the epoch a ranged plan on
// a table-backed store pinned; then the routes. It is the one caller of
// the fusion gate: asked once per call and live part, or once per live
// part with the first key for a grouped pass. A ranged statement never
// fuses. The plan executes and records nothing.
func (f *fanOut) plan(calls []aggCall, keys []string) *plan {
	st, p := f.st, &f.scratch.plan
	p.parts, p.ep = p.parts[:0], nil
	if p.parts == nil {
		p.parts = p.one[:0]
	}
	if n := len(st.shards); len(f.shardQ) < n {
		f.shardQ = append(f.shardQ, make([]*queryState, n-len(f.shardQ))...)
	}
	var rows int
	if f.ranged {
		rows, p.ep = f.visible()
	}
	glo, ghi := clipRange(f.lo, f.hi, rows)
	live := func(s int) (part planPart, ok bool) {
		part.shard = s
		if f.ranged {
			base, n := 0, rows // a table-backed store's one part, as its epoch saw it
			if p.ep == nil {
				base, n = s*st.shardRows, st.shards[s].Rows()
			}
			if part.lo, part.hi = max(glo-base, 0), min(ghi-base, n); part.lo >= part.hi {
				return part, false
			}
		}
		for i := range f.clauses {
			if !st.mayMatch(s, &f.clauses[i]) {
				return part, false
			}
		}
		return part, true
	}
	// Count, then fill: one allocation sized to the live parts, not a
	// doubling series, when more than one is live.
	n := 0
	for s := range st.shards {
		if _, ok := live(s); ok {
			n++
		}
	}
	p.parts = slices.Grow(p.parts, n)
	for s := range st.shards {
		if part, ok := live(s); ok {
			p.parts = append(p.parts, part)
		}
	}
	p.ranged, p.index = f.ranged, f.ranged && len(f.clauses) == 0
	p.keep = keys != nil && (calls == nil || slices.ContainsFunc(calls, aggCall.isRank))
	p.fused = !f.ranged && !p.keep
	for _, part := range p.parts {
		sq := f.shardQuery(part.shard)
		if keys != nil {
			nullKey := slices.ContainsFunc(keys, func(k string) bool { return sq.t.cols[k].nulls != nil })
			p.fused = p.fused && !nullKey && (len(f.clauses) == 0 || gate(sq, sq.t.cols[keys[0]]))
			continue
		}
		for _, c := range calls {
			p.fused = p.fused && gate(sq, sq.t.cols[c.column])
		}
	}
	return p
}

// visible is the row count a ranged view sees and the epoch it pinned for
// it: on a table-backed store, one epoch of the table — a sweep's, when
// the view carries one — so the plan reads no row count an append is
// writing; on a sharded store, its committed rows and no epoch.
func (f *fanOut) visible() (int, *tableEpoch) {
	switch {
	case f.st.shardRows != onePart:
		return f.st.rows, nil
	case f.ep != nil:
		return f.ep.rows, f.ep
	}
	ep := f.st.shards[0].pinEpoch()
	return ep.rows, ep
}

// shardQuery returns shard s's kept query state, built on first use and
// forwarded any clause added since. Clauses were validated against the
// store's specs when recorded. Callers size the kept table first (plan)
// and touch one shard per goroutine.
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

// fan executes visit once per slot of the plan's live parts through the
// parallel index fan-out (one live part runs inline on the caller's
// goroutine), after booking the plan's pruning verdict; the slot gives
// deterministic result placement. visit asks the slot's view directly,
// because a multi-shard fan-out runs on a fresh goroutine stack; a
// statement's is a method expression, so a fan-out allocates no closure
// for it. threads is the query's Parallel option, which the caller has
// resolved.
func (f *fanOut) fan(ctx context.Context, p *plan, threads int, visit func(f *fanOut, ctx context.Context, slot int) error) error {
	f.stats.Record(ExecStats{
		ShardsScanned: uint64(len(p.parts)),
		ShardsPruned:  uint64(len(f.st.shards) - len(p.parts)),
	})
	return wrapExecErr(parallel.ForEachIndexErr(orBackground(ctx), len(p.parts), threads, f, visit))
}

// view returns the engine's view of the live part in a slot of the plan:
// its kept state (see shardQuery), cut to the part's local slice of the
// range, under the plan. The view is a value — nothing is allocated per
// part per aggregate.
func (f *fanOut) view(slot int) flatView {
	p := &f.scratch.plan
	part := p.parts[slot]
	return flatView{queryState: f.shardQuery(part.shard), plan: p, lo: part.lo, hi: part.hi}
}

// Selection returns the rows passing the filter — within the row range,
// for a range view — as a fresh bitmap over the store's rows, which the
// caller owns: each live part's rows written at its row base, a pruned
// part's left clear. Each live part materializes its kept selection, so
// later aggregates run two-phase on it.
func (f *fanOut) Selection() *Bitmap {
	p := f.plan(nil, nil)
	sels := make([]*Bitmap, len(p.parts))
	fusedMust(f.fan(nil, p, execOptions(f.execs).Threads, func(f *fanOut, _ context.Context, slot int) error {
		v := f.view(slot)
		sels[slot] = v.selected()
		return nil
	}))
	out := bitvec.New(f.st.rows)
	for slot, part := range p.parts {
		depositAt(out, part.shard*f.st.shardRows, sels[slot].b)
	}
	return &Bitmap{b: out}
}

// depositAt writes src's bits into dst from row base on.
func depositAt(dst *bitvec.Bitmap, base int, src *bitvec.Bitmap) {
	for w := range src.NumWords() {
		dst.Deposit(base+64*w, min(64, src.Len()-64*w), src.Word(w))
	}
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
// plan and one fan-out (DESIGN.md §15), into out, parallel to them. Each
// live part's view is visited once and answers every call through eval,
// on the route the plan chose: a non-rank's partial, a rank's part of its
// descent. Then each non-rank merges its partials in shard order and each
// rank runs one descent over its parts, its rounds summing the counts of
// every shard; a rank records where the shards' kept states do, into the
// WithStats collector when there is one, else into a CollectStats
// option's.
func (f *fanOut) aggs(ctx context.Context, out []AggResult) error {
	ctx, sc := orBackground(ctx), &f.scratch
	p := f.plan(sc.calls, nil)
	o := execOptions(f.execs)
	if f.stats != nil {
		o.Stats = f.stats
	}
	n, nl := len(sc.calls), len(p.parts)
	if cap(sc.parts) < n*nl {
		sc.parts = make([]partial, n*nl)
	}
	if cap(sc.ranks) < n*nl && slices.ContainsFunc(sc.calls, aggCall.isRank) {
		sc.ranks = make([]parallel.RankPart, n*nl)
	}
	defer clear(sc.ranks) // rank parts hold their candidate lists: let them go
	if err := f.fan(ctx, p, o.Threads, (*fanOut).visit); err != nil {
		return err
	}
	for i, c := range sc.calls {
		if !c.isRank() {
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

// visit answers every call of the statement on the live part in slot,
// into the part's slots of the scratch, on the route the plan chose: an
// index-served call from the prefix-sum index (a part whose column holds
// NULLs has no snapshot, and declines to its range cut), every other
// through eval. ctx is checked before each call.
func (f *fanOut) visit(ctx context.Context, slot int) (err error) {
	v, sc := f.view(slot), &f.scratch
	nl := len(sc.plan.parts)
	for i := range sc.calls {
		c, k := &sc.calls[i], i*nl+slot
		if err := ctx.Err(); err != nil {
			return err
		}
		if v.index && c.op <= opMax {
			var ok bool
			if sc.parts[k], ok = v.evalIndex(c); ok {
				continue
			}
		}
		var r *parallel.RankPart
		if c.isRank() {
			r = &sc.ranks[k]
		}
		if sc.parts[k], err = v.eval(ctx, c, r); err != nil {
			return err
		}
	}
	return nil
}

// result is the public answer of a non-rank call from its merged partial.
func (c aggCall) result(p partial) AggResult {
	switch {
	case c.op <= opCount:
		return AggResult{Value: p.cnt, OK: true}
	case c.op <= opSumCount:
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
// uint64 returns an *OverflowError carrying the exact 128-bit sum: a shard
// whose own partial overflows reports its exact value the same way, and
// that merges like any other.
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
// one part's exactly.
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
