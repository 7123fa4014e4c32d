package bpagg

import (
	"context"
	"fmt"
)

// Window partitions the table's rows into windows of size rows starting
// every step rows (size == step is tumbling, size > step sliding with
// overlap, size < step sampling with gaps) and aggregates each window.
// Filter-free windows answer from the prefix-sum range index — every
// window is one prefix difference, so a full sliding-window sweep costs
// O(windows), not O(windows × width) — and the whole sweep pins a single
// epoch: all windows see the same row high-water mark even while appends
// run concurrently. It panics unless size and step are at least 1.
func (q *Query) Window(size, step int) *WindowQuery {
	checkWindow(size, step)
	return &WindowQuery{windows[*RangeQuery]{src: q, size: size, step: step}}
}

// Window partitions the store's rows into windows of size rows every step
// rows and aggregates each window — the sharded twin of Query.Window.
// Each window is one ShardedRangeQuery fan-out, so catalog pruning and
// local-range translation apply per window. It panics unless size and
// step are at least 1.
func (q *ShardedQuery) Window(size, step int) *ShardedWindowQuery {
	checkWindow(size, step)
	return &ShardedWindowQuery{windows[*ShardedRangeQuery]{src: q, size: size, step: step}}
}

func checkWindow(size, step int) {
	if size < 1 || step < 1 {
		panic(fmt.Sprintf("bpagg: invalid window size %d step %d", size, step))
	}
}

// WindowQuery aggregates per window. See Query.Window. Windows start at
// rows 0, step, 2·step, … while the start is below the visible row count;
// the last windows clip to the table, and an empty table yields empty
// result slices (an unknown column is an error all the same).
type WindowQuery struct {
	windows[*RangeQuery]
}

// ShardedWindowQuery aggregates per window over a ShardedTable, with
// WindowQuery's window placement. See ShardedQuery.Window.
type ShardedWindowQuery struct {
	windows[*ShardedRangeQuery]
}

// rangeView is what a sweep moves from window to window and asks each
// window's aggregate of: a *RangeQuery on a table, a *ShardedRangeQuery on
// a store.
type rangeView interface {
	moveTo(lo, hi int)
	CountRowsContext(ctx context.Context) (uint64, error)
	SumContext(ctx context.Context, column string) (uint64, error)
	MinContext(ctx context.Context, column string) (uint64, bool, error)
	MaxContext(ctx context.Context, column string) (uint64, bool, error)
	AvgContext(ctx context.Context, column string) (float64, bool, error)
}

// windows is the one implementation of the per-window aggregates, over
// either range view; WindowQuery and ShardedWindowQuery promote its
// methods.
type windows[R rangeView] struct {
	src interface {
		windowView(column string) (view R, rows int, err error)
	}
	size, step int
}

// windowView is the flat sweep's range view and the row count its windows
// cover, once the aggregate's column (none for COUNT(*)) resolves. A
// filter-free sweep pins one epoch for all of them.
func (q *Query) windowView(column string) (*RangeQuery, int, error) {
	if column != "" {
		if _, err := q.t.ColumnErr(column); err != nil {
			return nil, 0, err
		}
	}
	r := q.Range(0, 0)
	if !q.filterFree() {
		return r, q.t.rows, nil
	}
	r.ep = q.t.pinEpoch()
	return r, r.ep.rows, nil
}

func (q *ShardedQuery) windowView(column string) (*ShardedRangeQuery, int, error) {
	if column != "" {
		if _, err := q.st.specErr(column); err != nil {
			return nil, 0, err
		}
	}
	return q.Range(0, 0), q.st.rows, nil
}

func (r *RangeQuery) moveTo(lo, hi int)        { r.lo, r.hi = lo, hi }
func (r *ShardedRangeQuery) moveTo(lo, hi int) { r.lo, r.hi = lo, hi }

// sweep asks agg of every window in turn; oks[i] is agg's presence flag
// for window i. The aggregate's column resolves once, before the first
// window, so an unknown one is an error even when there is none. The
// window end is clamped here, for every aggregate and both stores: a size
// past the rows that remain is the rows that remain, so start+size cannot
// wrap.
func sweep[R rangeView, T any](w *windows[R], column string, agg func(view R) (T, bool, error)) ([]T, []bool, error) {
	view, rows, err := w.src.windowView(column)
	if err != nil {
		return nil, nil, err
	}
	out, oks := []T{}, []bool{}
	for b := 0; b < rows; b += w.step {
		view.moveTo(b, b+min(w.size, rows-b))
		v, ok, err := agg(view)
		if err != nil {
			return nil, nil, err
		}
		out, oks = append(out, v), append(oks, ok)
	}
	return out, oks, nil
}

// CountRows returns each window's row count after the filter.
func (w *windows[R]) CountRows() []uint64 {
	return must(w.CountRowsContext(context.Background()))
}

// CountRowsContext is CountRows honoring ctx.
func (w *windows[R]) CountRowsContext(ctx context.Context) ([]uint64, error) {
	out, _, err := sweep(w, "", func(view R) (uint64, bool, error) {
		c, err := view.CountRowsContext(ctx)
		return c, true, err
	})
	return out, err
}

// Sum aggregates SUM of the named column per window. Any window's sum
// exceeding uint64 panics with *OverflowError.
func (w *windows[R]) Sum(column string) []uint64 {
	return must(w.SumContext(context.Background(), column))
}

// SumContext is Sum honoring ctx; an overflowing window returns
// *OverflowError.
func (w *windows[R]) SumContext(ctx context.Context, column string) ([]uint64, error) {
	out, _, err := sweep(w, column, func(view R) (uint64, bool, error) {
		v, err := view.SumContext(ctx, column)
		return v, true, err
	})
	return out, err
}

// Min aggregates MIN of the named column per window; oks[i] is false when
// window i holds no qualifying row.
func (w *windows[R]) Min(column string) ([]uint64, []bool) {
	return must2(w.MinContext(context.Background(), column))
}

// Max aggregates MAX of the named column per window.
func (w *windows[R]) Max(column string) ([]uint64, []bool) {
	return must2(w.MaxContext(context.Background(), column))
}

// MinContext is Min honoring ctx.
func (w *windows[R]) MinContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return sweep(w, column, func(view R) (uint64, bool, error) { return view.MinContext(ctx, column) })
}

// MaxContext is Max honoring ctx.
func (w *windows[R]) MaxContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return sweep(w, column, func(view R) (uint64, bool, error) { return view.MaxContext(ctx, column) })
}

// Avg aggregates AVG of the named column per window; oks[i] is false when
// window i holds no qualifying row.
func (w *windows[R]) Avg(column string) ([]float64, []bool) {
	return must2(w.AvgContext(context.Background(), column))
}

// AvgContext is Avg honoring ctx. Matching the scan path's contract, a
// window whose sum exceeds uint64 returns *OverflowError.
func (w *windows[R]) AvgContext(ctx context.Context, column string) ([]float64, []bool, error) {
	return sweep(w, column, func(view R) (float64, bool, error) { return view.AvgContext(ctx, column) })
}
