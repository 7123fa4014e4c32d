package bpagg

import (
	"context"
	"fmt"
)

// Window partitions the store's rows into windows of size rows starting
// every step rows (size == step is tumbling, size > step sliding with
// overlap, size < step sampling with gaps) and aggregates each window.
// Each window is one ShardedRangeQuery fan-out, so catalog pruning and
// local-range translation apply per window, and a filter-free window of a
// part answers from its prefix-sum range index — every window is one
// prefix difference, so a full sliding-window sweep costs O(windows), not
// O(windows × width). On a table's store the whole sweep pins a single
// epoch: all windows see the same row high-water mark even while appends
// run concurrently. It panics unless size and step are at least 1.
func (q *ShardedQuery) Window(size, step int) *ShardedWindowQuery {
	if size < 1 || step < 1 {
		panic(fmt.Sprintf("bpagg: invalid window size %d step %d", size, step))
	}
	return &ShardedWindowQuery{q: q, size: size, step: step}
}

// ShardedWindowQuery aggregates per window. See ShardedQuery.Window.
// Windows start at rows 0, step, 2·step, … while the start is below the
// visible row count; the last windows clip to the store, and an empty
// store yields empty result slices (an unknown column is an error all the
// same).
type ShardedWindowQuery struct {
	q          *ShardedQuery
	size, step int
}

// sweep asks agg of every window in turn, through one range view moved
// from window to window, into result slices sized up front; oks[i] is
// agg's presence flag for window i. The aggregate's column resolves once,
// before the first window, so an unknown one is an error even when there
// is none. The window end is clamped here, for every aggregate: a size
// past the rows that remain is the rows that remain, so start+size cannot
// wrap.
func sweep[T any](w *ShardedWindowQuery, column string, agg func(view *ShardedRangeQuery) (T, bool, error)) ([]T, []bool, error) {
	if column != "" {
		if _, err := w.q.st.specErr(column); err != nil {
			return nil, nil, err
		}
	}
	view := w.q.Range(0, 0)
	rows, ep := view.visible()
	view.ep = ep
	n := 0
	if rows > 0 {
		n = (rows-1)/w.step + 1 // (rows+step-1)/step, which could wrap
	}
	out, oks := make([]T, n), make([]bool, n)
	for i := range n {
		b := i * w.step
		view.lo, view.hi = b, b+min(w.size, rows-b)
		var err error
		if out[i], oks[i], err = agg(view); err != nil {
			return nil, nil, err
		}
	}
	return out, oks, nil
}

// CountRows returns each window's row count after the filter.
func (w *ShardedWindowQuery) CountRows() []uint64 {
	return must(w.CountRowsContext(context.Background()))
}

// CountRowsContext is CountRows honoring ctx.
func (w *ShardedWindowQuery) CountRowsContext(ctx context.Context) ([]uint64, error) {
	out, _, err := sweep(w, "", func(view *ShardedRangeQuery) (uint64, bool, error) {
		c, err := view.CountRowsContext(ctx)
		return c, true, err
	})
	return out, err
}

// Sum aggregates SUM of the named column per window. Any window's sum
// exceeding uint64 panics with *OverflowError.
func (w *ShardedWindowQuery) Sum(column string) []uint64 {
	return must(w.SumContext(context.Background(), column))
}

// SumContext is Sum honoring ctx; an overflowing window returns
// *OverflowError.
func (w *ShardedWindowQuery) SumContext(ctx context.Context, column string) ([]uint64, error) {
	out, _, err := sweep(w, column, func(view *ShardedRangeQuery) (uint64, bool, error) {
		v, err := view.SumContext(ctx, column)
		return v, true, err
	})
	return out, err
}

// Min aggregates MIN of the named column per window; oks[i] is false when
// window i holds no qualifying row.
func (w *ShardedWindowQuery) Min(column string) ([]uint64, []bool) {
	return must2(w.MinContext(context.Background(), column))
}

// Max aggregates MAX of the named column per window.
func (w *ShardedWindowQuery) Max(column string) ([]uint64, []bool) {
	return must2(w.MaxContext(context.Background(), column))
}

// MinContext is Min honoring ctx.
func (w *ShardedWindowQuery) MinContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return sweep(w, column, func(view *ShardedRangeQuery) (uint64, bool, error) { return view.MinContext(ctx, column) })
}

// MaxContext is Max honoring ctx.
func (w *ShardedWindowQuery) MaxContext(ctx context.Context, column string) ([]uint64, []bool, error) {
	return sweep(w, column, func(view *ShardedRangeQuery) (uint64, bool, error) { return view.MaxContext(ctx, column) })
}

// Avg aggregates AVG of the named column per window; oks[i] is false when
// window i holds no qualifying row.
func (w *ShardedWindowQuery) Avg(column string) ([]float64, []bool) {
	return must2(w.AvgContext(context.Background(), column))
}

// AvgContext is Avg honoring ctx. Matching the scan path's contract, a
// window whose sum exceeds uint64 returns *OverflowError.
func (w *ShardedWindowQuery) AvgContext(ctx context.Context, column string) ([]float64, []bool, error) {
	return sweep(w, column, func(view *ShardedRangeQuery) (float64, bool, error) { return view.AvgContext(ctx, column) })
}
