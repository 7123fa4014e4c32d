package bpagg

import (
	"context"
	"fmt"
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/rangeidx"
	"bpagg/internal/vbp"
)

// Range and window aggregates over row positions (DESIGN.md §16).
//
// A filter-free Range/Window aggregate is answered from the table's
// prefix-sum range index (internal/rangeidx): SUM/COUNT/AVG over any row
// range cost one 128-bit prefix difference plus two masked boundary
// segments, MIN/MAX one sparse-table lookup plus the same fringes —
// independent of the range width. The index is built lazily on the first
// Range/Window call and maintained incrementally by every table append.
//
// Appends run concurrently with range queries: each append publishes a new
// immutable epoch through an atomic pointer, and every query pins exactly
// one epoch — it sees either the table before an append or after it, never
// a torn tail segment. Queries with Where clauses (or a materialized
// Selection, or on NULL-bearing columns) fall back to the scan pipeline
// with the range as one more conjunctive filter, bit-identical to the
// index path.

// tableEpoch is one published index state: the row high-water mark and a
// per-column snapshot. Columns carrying NULLs are absent — their range
// aggregates take the fallback path, where the validity bitmap applies.
type tableEpoch struct {
	rows int
	cols map[string]*rangeidx.Snapshot
}

// segRows returns the column's segment size in tuples — the unit the range
// index seals at.
func (c *Column) segRows() int {
	if c.layout == VBP {
		return vbp.SegBits
	}
	return c.h.ValuesPerSegment()
}

// rangeFringe captures the frozen word view over the first sealed
// segments, the fringe kernel backing of one epoch.
func (c *Column) rangeFringe(sealed int) rangeidx.Fringe {
	if c.layout == VBP {
		return c.v.Freeze(sealed)
	}
	return c.h.Freeze(sealed)
}

// segCache adapts a column's per-segment aggregate caches to the index
// builder's exactness contract: entries are vouched for only when the
// caches are live (not invalidated by zone adoption or resumed appends)
// and the code width guarantees the uint64 zSum cannot itself have
// wrapped. Otherwise the builder recomputes from the frozen words, so the
// index is exact regardless of cache staleness.
type segCache struct{ c *Column }

func (sc segCache) SegmentExact(seg int) (sum, mn, mx uint64, ok bool) {
	if sc.c.k > core.SumCacheExactK {
		return 0, 0, 0, false
	}
	var okS, okR bool
	if sc.c.layout == VBP {
		sum, okS = sc.c.v.SegmentSum(seg)
		mn, mx, okR = sc.c.v.SegmentRangeExact(seg)
	} else {
		sum, okS = sc.c.h.SegmentSum(seg)
		mn, mx, okR = sc.c.h.SegmentRangeExact(seg)
	}
	if !okS || !okR {
		return 0, 0, 0, false
	}
	return sum, mn, mx, true
}

// pinEpoch returns the current epoch, building and publishing the first
// one on demand (double-checked under the append lock). The returned
// epoch is immutable: concurrent appends publish successors, never mutate
// a published one.
func (t *Table) pinEpoch() *tableEpoch {
	if ep := t.epoch.Load(); ep != nil {
		return ep
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep := t.epoch.Load(); ep != nil {
		return ep
	}
	t.ridx = make(map[string]*rangeidx.Builder, len(t.names))
	t.publishEpochLocked()
	return t.epoch.Load()
}

// publishEpochLocked extends every column's index builder to the current
// row count and publishes a fresh epoch. Caller holds t.mu; a no-op until
// the first Range/Window call allocates t.ridx. Sealed segments index in
// O(log S) amortized; the open tail (at most one segment per column) is
// copied to plain values so queries never read words an append mutates.
func (t *Table) publishEpochLocked() {
	if t.ridx == nil {
		return
	}
	ep := &tableEpoch{rows: t.rows, cols: make(map[string]*rangeidx.Snapshot, len(t.names))}
	for _, name := range t.names {
		c := t.cols[name]
		if c.nulls != nil {
			delete(t.ridx, name)
			continue
		}
		b := t.ridx[name]
		if b == nil {
			b = rangeidx.NewBuilder(c.segRows())
			t.ridx[name] = b
		}
		sealed := c.Len() / b.SegRows()
		fr := c.rangeFringe(sealed)
		b.Extend(c.Len(), segCache{c}, fr)
		tail := make([]uint64, c.Len()-sealed*b.SegRows())
		for i := range tail {
			tail[i] = c.Value(sealed*b.SegRows() + i)
		}
		ep.cols[name] = b.Snapshot(c.Len(), tail, fr)
	}
	t.epoch.Store(ep)
}

// Range restricts the query's aggregates to rows [lo, hi) by position
// (0-based, half-open; hi clips to the table). Filter-free queries answer
// from the prefix-sum range index in O(1); queries with Where clauses
// treat the range as one more conjunctive filter. It panics when lo is
// negative or hi < lo.
func (q *Query) Range(lo, hi int) *RangeQuery {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bpagg: invalid row range [%d, %d)", lo, hi))
	}
	return &RangeQuery{q: q, lo: lo, hi: hi}
}

// RangeQuery aggregates over a row-position range. See Query.Range.
type RangeQuery struct {
	q      *Query
	lo, hi int
	ep     *tableEpoch // set by a window sweep, which pins one epoch for all its windows
}

// epoch returns the epoch the index-served aggregates read: the sweep's,
// or else one pinned per aggregate call.
func (r *RangeQuery) epoch() *tableEpoch {
	if r.ep != nil {
		return r.ep
	}
	return r.q.t.pinEpoch()
}

// snap returns the pinned index snapshot for the column when the fast
// path applies: no Where clauses, no materialized selection, and the
// column is indexed (NULL-free).
func (r *RangeQuery) snap(column string) (*rangeidx.Snapshot, bool) {
	if len(r.q.clauses) != 0 || r.q.sel != nil {
		return nil, false
	}
	s := r.epoch().cols[column]
	return s, s != nil
}

// selection materializes the fallback selection: the query's filter
// bitmap intersected with the range mask. The query's own selection is
// left untouched — later aggregates without the range see all rows.
func (r *RangeQuery) selection() *Bitmap {
	return r.q.Selection().Clone().And(rangeBitmap(r.q.t.rows, r.lo, r.hi))
}

// Selection materializes and returns the range's row mask intersected
// with the query's filter bitmap. The caller owns the result and may
// combine it with arbitrary bitmaps; the query's own selection is left
// untouched.
func (r *RangeQuery) Selection() *Bitmap {
	return r.selection()
}

// GroupByContext partitions the rows of the range that pass the filter by
// the named columns' distinct values, honoring ctx. The range selection
// is the base bitmap of the same single-pass partition Query.GroupByContext
// runs.
func (r *RangeQuery) GroupByContext(ctx context.Context, columns ...string) (*Grouped, error) {
	ranged := &Query{t: r.q.t, execs: r.q.execs, stats: r.q.stats, sel: r.selection()}
	return ranged.GroupByContext(ctx, columns...)
}

// GroupBy partitions the rows of the range that pass the filter by the
// distinct values of the named columns.
func (r *RangeQuery) GroupBy(columns ...string) *Grouped {
	g, err := r.GroupByContext(nil, columns...)
	fusedMust(err)
	return g
}

// record books one index-served aggregate into the query's collector.
func (r *RangeQuery) record(n uint64, st rangeidx.Stats, start time.Time) {
	r.q.stats.Record(ExecStats{
		Aggregates:          n,
		AggNanos:            time.Since(start).Nanoseconds(),
		SegmentsIndexServed: st.IndexSegments,
		RangeFringeWords:    st.FringeWords,
	})
}

// CountRows returns the number of rows passing the filter within the
// range.
func (r *RangeQuery) CountRows() uint64 {
	cnt, err := r.CountRowsContext(nil)
	fusedMust(err)
	return cnt
}

// CountRowsContext is CountRows honoring ctx.
func (r *RangeQuery) CountRowsContext(ctx context.Context) (uint64, error) {
	if err := orBackground(ctx).Err(); err != nil {
		return 0, err
	}
	if len(r.q.clauses) == 0 && r.q.sel == nil {
		start := time.Now()
		lo, hi := clipRange(r.lo, r.hi, r.epoch().rows)
		r.record(1, rangeidx.Stats{}, start)
		return uint64(hi - lo), nil
	}
	return uint64(r.selection().Count()), nil
}

// Count returns the number of non-NULL rows of the named column within
// the range that pass the filter.
func (r *RangeQuery) Count(column string) uint64 {
	cnt, err := r.CountContext(nil, column)
	fusedMust(err)
	return cnt
}

// CountContext is Count honoring ctx. Indexed columns are NULL-free, so
// the filter-free count is the clipped range width; NULL-bearing columns
// count their validity over the fallback selection.
func (r *RangeQuery) CountContext(ctx context.Context, column string) (uint64, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, err
	}
	if s, ok := r.snap(column); ok {
		if err := orBackground(ctx).Err(); err != nil {
			return 0, err
		}
		start := time.Now()
		lo, hi := clipRange(r.lo, r.hi, s.Rows())
		r.record(1, rangeidx.Stats{}, start)
		return uint64(hi - lo), nil
	}
	return col.CountContext(ctx, r.selection())
}

// Sum aggregates SUM over the named column within the range. A sum
// exceeding uint64 panics with *OverflowError (the index carries exact
// 128-bit prefixes, so the true total is always known).
func (r *RangeQuery) Sum(column string) uint64 {
	v, err := r.SumContext(nil, column)
	fusedMust(err)
	return v
}

// SumContext is Sum honoring ctx; overflow returns *OverflowError.
func (r *RangeQuery) SumContext(ctx context.Context, column string) (uint64, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, err
	}
	if s, ok := r.snap(column); ok {
		if err := orBackground(ctx).Err(); err != nil {
			return 0, err
		}
		start := time.Now()
		hi, lo, st := s.Sum(r.lo, r.hi)
		r.record(1, st, start)
		if hi != 0 {
			return 0, &OverflowError{Hi: hi, Lo: lo}
		}
		return lo, nil
	}
	return col.SumContext(ctx, r.selection(), r.q.execs...)
}

// SumCountContext aggregates SUM and the column's non-NULL COUNT within
// the range — the shape AVG and SQL formatters need. Both are O(1) on the
// index path, so they stay two lookups rather than a third kernel.
func (r *RangeQuery) SumCountContext(ctx context.Context, column string) (sum, cnt uint64, err error) {
	if cnt, err = r.CountContext(ctx, column); err != nil {
		return 0, 0, err
	}
	sum, err = r.SumContext(ctx, column)
	return sum, cnt, err
}

// Min aggregates MIN over the named column within the range; ok is false
// when no row qualifies.
func (r *RangeQuery) Min(column string) (uint64, bool) {
	v, ok, err := r.MinContext(nil, column)
	fusedMust(err)
	return v, ok
}

// Max aggregates MAX over the named column within the range.
func (r *RangeQuery) Max(column string) (uint64, bool) {
	v, ok, err := r.MaxContext(nil, column)
	fusedMust(err)
	return v, ok
}

// MinContext is Min honoring ctx.
func (r *RangeQuery) MinContext(ctx context.Context, column string) (uint64, bool, error) {
	return r.extremeContext(ctx, column, true)
}

// MaxContext is Max honoring ctx.
func (r *RangeQuery) MaxContext(ctx context.Context, column string) (uint64, bool, error) {
	return r.extremeContext(ctx, column, false)
}

func (r *RangeQuery) extremeContext(ctx context.Context, column string, wantMin bool) (uint64, bool, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if s, ok := r.snap(column); ok {
		if err := orBackground(ctx).Err(); err != nil {
			return 0, false, err
		}
		start := time.Now()
		var v uint64
		var any bool
		var st rangeidx.Stats
		if wantMin {
			v, any, st = s.Min(r.lo, r.hi)
		} else {
			v, any, st = s.Max(r.lo, r.hi)
		}
		r.record(1, st, start)
		return v, any, nil
	}
	if wantMin {
		return col.MinContext(ctx, r.selection(), r.q.execs...)
	}
	return col.MaxContext(ctx, r.selection(), r.q.execs...)
}

// Avg aggregates AVG over the named column within the range; ok is false
// when no row qualifies.
func (r *RangeQuery) Avg(column string) (float64, bool) {
	v, ok, err := r.AvgContext(nil, column)
	fusedMust(err)
	return v, ok
}

// AvgContext is Avg honoring ctx. Matching the scan path's contract, a
// range whose sum exceeds uint64 returns *OverflowError.
func (r *RangeQuery) AvgContext(ctx context.Context, column string) (float64, bool, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	if s, ok := r.snap(column); ok {
		if err := orBackground(ctx).Err(); err != nil {
			return 0, false, err
		}
		start := time.Now()
		hi, lo, st := s.Sum(r.lo, r.hi)
		a, b := clipRange(r.lo, r.hi, s.Rows())
		r.record(1, st, start)
		if a == b {
			return 0, false, nil
		}
		if hi != 0 {
			return 0, false, &OverflowError{Hi: hi, Lo: lo}
		}
		return float64(lo) / float64(b-a), true, nil
	}
	return col.AvgContext(ctx, r.selection(), r.q.execs...)
}

// Median aggregates the lower MEDIAN within the range. Rank-family
// aggregates have no O(1) index form; they run on the scan pipeline with
// the range as a filter.
func (r *RangeQuery) Median(column string) (uint64, bool) {
	v, ok, err := r.MedianContext(nil, column)
	fusedMust(err)
	return v, ok
}

// MedianContext is Median honoring ctx.
func (r *RangeQuery) MedianContext(ctx context.Context, column string) (uint64, bool, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	return col.MedianContext(ctx, r.selection(), r.q.execs...)
}

// Rank returns the rank-th smallest qualifying value within the range.
func (r *RangeQuery) Rank(column string, rank uint64) (uint64, bool) {
	v, ok, err := r.RankContext(nil, column, rank)
	fusedMust(err)
	return v, ok
}

// RankContext is Rank honoring ctx.
func (r *RangeQuery) RankContext(ctx context.Context, column string, rank uint64) (uint64, bool, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	return col.RankContext(ctx, r.selection(), rank, r.q.execs...)
}

// Quantile returns the q-quantile (nearest rank) within the range.
func (r *RangeQuery) Quantile(column string, quantile float64) (uint64, bool) {
	v, ok, err := r.QuantileContext(nil, column, quantile)
	fusedMust(err)
	return v, ok
}

// QuantileContext is Quantile honoring ctx.
func (r *RangeQuery) QuantileContext(ctx context.Context, column string, quantile float64) (uint64, bool, error) {
	col, err := r.q.colErr(column)
	if err != nil {
		return 0, false, err
	}
	return col.QuantileContext(ctx, r.selection(), quantile, r.q.execs...)
}

// clipRange bounds [lo, hi) to a table of rows rows.
func clipRange(lo, hi, rows int) (int, int) {
	if hi > rows {
		hi = rows
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// rangeBitmap builds the selection of rows [lo, hi) word-wise: interior
// words set whole, the two boundary words masked — the bitmap analogue of
// the index's fringe decomposition.
func rangeBitmap(rows, lo, hi int) *Bitmap {
	lo, hi = clipRange(lo, hi, rows)
	b := bitvec.New(rows)
	if lo < hi {
		wa, wb := lo/64, (hi-1)/64
		for w := wa; w <= wb; w++ {
			m := ^uint64(0)
			if w == wa {
				m &= ^uint64(0) << uint(lo%64)
			}
			if rem := hi - w*64; rem < 64 {
				m &= uint64(1)<<uint(rem) - 1
			}
			b.SetWord(w, m)
		}
	}
	return &Bitmap{b: b}
}
