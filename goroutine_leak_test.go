package bpagg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bpagg/internal/faultinject"
)

// workerGate deterministically holds aggregation workers inside the
// kernel loop so a test can cancel the context while the operation is
// provably mid-scan (not before it started, not after it finished).
// The SiteWorkerRange hook blocks every worker until release.
type workerGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func holdWorkers(t *testing.T) *workerGate {
	t.Helper()
	g := &workerGate{entered: make(chan struct{}), release: make(chan struct{})}
	faultinject.Set(faultinject.SiteWorkerRange, func(...any) error {
		g.once.Do(func() { close(g.entered) })
		<-g.release
		return nil
	})
	t.Cleanup(func() {
		g.releaseAll()
		faultinject.Reset()
	})
	return g
}

func (g *workerGate) releaseAll() {
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

// requireNoLeak asserts the goroutine count returns to (near) baseline,
// retrying briefly because joined workers unwind asynchronously.
func requireNoLeak(t *testing.T, name string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("%s leaked goroutines: %d > baseline %d\n%s",
			name, g, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// cancelMidFlight runs op while workers are held at the gate, cancels
// the context mid-scan, releases the workers, and requires both a
// context.Canceled result and a clean goroutine ledger.
//
// The column sizes below are chosen so every worker owns more than one
// 4096-segment block: the cancellation check sits between blocks, so a
// single-block worker would legitimately finish despite the cancel and
// the test would prove nothing.
func cancelMidFlight(t *testing.T, name string, op func(ctx context.Context) error) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	g := holdWorkers(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- op(ctx) }()

	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		g.releaseAll()
		t.Fatalf("%s: no worker reached the kernel loop", name)
	}
	cancel()
	g.releaseAll()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s canceled mid-scan = %v, want context.Canceled", name, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: operation never returned after cancel", name)
	}
	faultinject.Reset()
	requireNoLeak(t, name, baseline)
}

// leakTable builds a two-column table big enough that two workers get
// multiple blocks each (~17k segments): "g" is a low-cardinality
// grouping column, "v" the measure.
func leakTable(t *testing.T) *Table {
	t.Helper()
	const n = 1_100_000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % 8)
		vals[i] = uint64(i % 1021)
	}
	tbl := NewTable()
	tbl.AddColumn("g", VBP, 4)
	tbl.AddColumn("v", VBP, 10)
	tbl.AppendColumnar(map[string][]uint64{"g": keys, "v": vals})
	return tbl
}

// TestCancellationLeaksColumnKernels covers the Column aggregates
// on both layouts: cancellation mid-scan must join every worker.
func TestCancellationLeaksColumnKernels(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		col, sel := bigColumn(t, layout, 1_100_000, 16)
		cancelMidFlight(t, layout.String()+" SumContext", func(ctx context.Context) error {
			_, err := col.SumContext(ctx, sel, Parallel(2))
			return err
		})
		cancelMidFlight(t, layout.String()+" MinContext", func(ctx context.Context) error {
			_, _, err := col.MinContext(ctx, sel, Parallel(2))
			return err
		})
		cancelMidFlight(t, layout.String()+" MedianContext", func(ctx context.Context) error {
			_, _, err := col.MedianContext(ctx, sel, Parallel(2))
			return err
		})
	}
}

// TestCancellationLeaksFusedScan cancels inside the fused
// scan→aggregate pipeline (no materialized bitmap to fall back on).
func TestCancellationLeaksFusedScan(t *testing.T) {
	tbl := leakTable(t)
	q := tbl.Query().With(Parallel(2)).Where("v", Less(900))
	if !q.Fused("v") {
		t.Fatal("query unexpectedly not fused; the test would miss the fused path")
	}
	cancelMidFlight(t, "fused SumCountContext", func(ctx context.Context) error {
		_, _, err := q.SumCountContext(ctx, "v")
		return err
	})
	cancelMidFlight(t, "fused CountRowsContext", func(ctx context.Context) error {
		_, err := q.CountRowsContext(ctx)
		return err
	})
}

// TestCancellationLeaksSinglePassGroupBy cancels mid-partition in the
// single-pass GROUP BY engine and mid-kernel in the banked per-group
// aggregates that ride on the partition.
func TestCancellationLeaksSinglePassGroupBy(t *testing.T) {
	tbl := leakTable(t)

	cancelMidFlight(t, "single-pass GroupByContext", func(ctx context.Context) error {
		_, err := tbl.Query().With(Parallel(2)).GroupByContext(ctx, "g")
		return err
	})

	// Build the partition cleanly, then cancel inside a banked kernel.
	grouped, err := tbl.Query().With(Parallel(2)).GroupByContext(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	cancelMidFlight(t, "banked Grouped.SumContext", func(ctx context.Context) error {
		_, err := grouped.SumContext(ctx, "v")
		return err
	})
}

// TestCancellationLeaksMaterializedGroupBy cancels mid-partition when
// the base bitmap is a materialized selection and when it is a row
// range's mask: both are the single-pass partition and must join every
// worker, leaving the query reusable.
func TestCancellationLeaksMaterializedGroupBy(t *testing.T) {
	tbl := leakTable(t)
	q := tbl.Query().With(Parallel(2))
	q.Selection()
	cancelMidFlight(t, "GroupByContext over a materialized selection", func(ctx context.Context) error {
		_, err := q.GroupByContext(ctx, "g")
		return err
	})
	cancelMidFlight(t, "GroupByContext over a row range", func(ctx context.Context) error {
		_, err := q.Range(64, tbl.Rows()-64).GroupByContext(ctx, "g")
		return err
	})
	if g, err := q.GroupByContext(context.Background(), "g"); err != nil {
		t.Fatalf("query after cancel: %v", err)
	} else if g.Len() != 8 {
		t.Fatalf("query after cancel: %d groups, want 8", g.Len())
	}
}

// leakStore builds a 7-shard store of the leakTable columns whose six
// full shards give each of eight in-shard workers more than one
// 4096-segment block, so a cancel while workers are held lands in every
// kernel at Parallel(8) as well as between shards at Parallel(1).
func leakStore(t *testing.T) *ShardedTable {
	t.Helper()
	const shardRows = (8*4096 + 64) * 64
	st := NewShardedTable(shardRows)
	st.AddColumn("g", VBP, 4)
	st.AddColumn("v", VBP, 10)
	keys, vals := make([]uint64, shardRows), make([]uint64, shardRows)
	for s := 0; s < 7; s++ {
		n := shardRows
		if s == 6 {
			n = 100_000
		}
		for i := 0; i < n; i++ {
			keys[i] = uint64((s*shardRows + i) % 8)
			vals[i] = uint64((s*shardRows + i) % 1021)
		}
		st.AppendColumnar(map[string][]uint64{"g": keys[:n], "v": vals[:n]})
	}
	return st
}

// TestCancellationLeaksShardFanOut cancels inside the sharded facade's
// one fan-out, through every kind of entry point that drives it: a scalar
// aggregate, a ranged one (the filter keeps it off the range index, whose
// lookups have no kernel to hold), a multi-shard MEDIAN held inside a
// counting probe, GROUP BY, and a window sweep. Each must return
// context.Canceled, join every worker, and leave the query usable: the
// kept per-shard queries and the merge scratch are written slot by slot
// and must not poison the next call.
func TestCancellationLeaksShardFanOut(t *testing.T) {
	st := leakStore(t)
	rows := st.Rows()
	for _, tc := range []struct {
		name     string
		filtered bool
		run      func(ctx context.Context, q *ShardedQuery) (any, error)
	}{
		{"SumCountContext", true, func(ctx context.Context, q *ShardedQuery) (any, error) {
			return c2(q.SumCountContext(ctx, "v"))
		}},
		{"Range.SumContext", true, func(ctx context.Context, q *ShardedQuery) (any, error) {
			return c1(q.Range(1000, rows-1000).SumContext(ctx, "v"))
		}},
		{"MedianContext", false, func(ctx context.Context, q *ShardedQuery) (any, error) {
			return c2(q.MedianContext(ctx, "v"))
		}},
		{"GroupByContext", true, func(ctx context.Context, q *ShardedQuery) (any, error) {
			return onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.CountContext(ctx)) })(ctx, q)
		}},
		{"Window.SumContext", true, func(ctx context.Context, q *ShardedQuery) (any, error) {
			return c1(q.Window(rows/3, rows/3).SumContext(ctx, "v"))
		}},
	} {
		for _, threads := range []int{1, 8} {
			query := func() *ShardedQuery {
				q := st.Query().With(Parallel(threads))
				if tc.filtered {
					q.Where("v", Less(900))
				}
				return q
			}
			name := fmt.Sprintf("%s Parallel(%d)", tc.name, threads)
			q := query()
			cancelMidFlight(t, name, func(ctx context.Context) error {
				_, err := tc.run(ctx, q)
				return err
			})
			got, err := tc.run(context.Background(), q)
			want, werr := tc.run(context.Background(), query())
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s after a canceled call = %v (%v), a fresh query answers %v (%v)", name, got, err, want, werr)
			}
		}
	}
}
