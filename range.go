package bpagg

import (
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

// segRows returns the column's window width in tuples (VBP's 64, HBP's
// values-per-segment): the unit the range index seals at, and what every
// column of a fused query must agree on.
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
	return &RangeQuery{flatView{queryState: q.queryState, ranged: true, lo: lo, hi: hi}}
}

// RangeQuery aggregates over a row-position range: its query's state cut
// to [lo, hi). See Query.Range; the methods are flatView's, promoted.
type RangeQuery struct {
	flatView
}

// filterFree reports whether every row is selected: no Where clause and
// no materialized (possibly caller-edited) selection.
func (s *queryState) filterFree() bool { return len(s.clauses) == 0 && s.sel == nil }

// evalIndex answers c from the prefix-sum index when the fast path
// applies — no Where clauses, no materialized selection, an aggregate the
// index has a form for, and an indexed (NULL-free) column — and books it
// as one aggregate, or two for SUM+COUNT (two lookups). It reads the
// sweep's epoch, or else pins one for this call; indexed columns are
// NULL-free, so a count is the clipped range width.
func (v *flatView) evalIndex(c *aggCall) (p partial, ok bool) {
	if !v.filterFree() || c.op > opMax {
		return p, false
	}
	ep := v.ep
	if ep == nil {
		ep = v.t.pinEpoch()
	}
	s := ep.cols[c.column]
	if s == nil && c.op != opCountRows {
		return p, false
	}
	start := time.Now()
	var st rangeidx.Stats
	switch {
	case c.op <= opAvg:
		if c.op >= opSum {
			p.hi, p.lo, st = s.Sum(v.lo, v.hi)
		}
		lo, hi := clipRange(v.lo, v.hi, ep.rows)
		p.cnt = uint64(hi - lo)
	case c.op == opMin:
		p.lo, p.ok, st = s.Min(v.lo, v.hi)
	default:
		p.lo, p.ok, st = s.Max(v.lo, v.hi)
	}
	aggs := uint64(1)
	if c.op == opSumCount {
		aggs = 2
	}
	v.recordIndex(aggs, st, start)
	return p, true
}

// recordIndex books index-served aggregates into the query's collector.
// It is a function of its own so the ExecStats value is built in a leaf
// frame, not held under the index lookups: the shard fan-out runs this
// path on a fresh goroutine stack.
func (s *queryState) recordIndex(aggs uint64, st rangeidx.Stats, start time.Time) {
	s.stats.Record(ExecStats{
		Aggregates:          aggs,
		AggNanos:            time.Since(start).Nanoseconds(),
		SegmentsIndexServed: st.IndexSegments,
		RangeFringeWords:    st.FringeWords,
	})
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
