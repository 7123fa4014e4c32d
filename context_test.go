package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bpagg/internal/faultinject"
)

func bigColumn(t *testing.T, layout Layout, n, k int) (*Column, *Bitmap) {
	t.Helper()
	rng := rand.New(rand.NewSource(417))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & ((1 << uint(k)) - 1)
	}
	col := FromValues(layout, k, vals)
	return col, col.All()
}

// TestMedianDeadlineCancellation is the headline acceptance test: a
// parallel MEDIAN over >= 1M rows with an already-expired deadline must
// return context.DeadlineExceeded and start no block of work — counted at
// the workers' per-block hook, which the same call without a deadline
// fires, so the check does not depend on timing.
func TestMedianDeadlineCancellation(t *testing.T) {
	const n = 1_500_000
	defer faultinject.Reset()
	var blocks atomic.Int64
	faultinject.Set(faultinject.SiteWorkerRange, func(...any) error {
		blocks.Add(1)
		return nil
	})
	for _, layout := range []Layout{VBP, HBP} {
		col, sel := bigColumn(t, layout, n, 24)
		opts := []ExecOption{Parallel(4)}

		blocks.Store(0)
		want, ok, err := col.MedianContext(context.Background(), sel, opts...)
		if err != nil || !ok {
			t.Fatalf("%v MedianContext baseline: ok=%v err=%v", layout, ok, err)
		}
		if blocks.Load() == 0 {
			t.Fatalf("%v MedianContext baseline ran no block of work", layout)
		}
		if m, mok := must2(col.MedianContext(bg, sel, opts...)); m != want || !mok {
			t.Fatalf("%v MedianContext=%d disagrees with Median=%d", layout, want, m)
		}

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
		blocks.Store(0)
		_, _, err = col.MedianContext(ctx, sel, opts...)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v MedianContext with expired deadline = %v, want DeadlineExceeded", layout, err)
		}
		if b := blocks.Load(); b != 0 {
			t.Fatalf("%v MedianContext with expired deadline ran %d blocks of work, want 0", layout, b)
		}
	}
}

// TestMidFlightCancellation cancels a running parallel MEDIAN from
// another goroutine and requires prompt abort with context.Canceled.
func TestMidFlightCancellation(t *testing.T) {
	col, sel := bigColumn(t, VBP, 1_500_000, 24)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	_, _, err := col.MedianContext(ctx, sel, Parallel(4))
	// The aggregate may legitimately finish before the cancel lands on a
	// fast machine; either a clean result or context.Canceled is correct,
	// anything else is a bug.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("MedianContext after mid-flight cancel = %v, want nil or context.Canceled", err)
	}
}

// TestWorkerPanicBecomesError injects a panic into an aggregation
// worker and checks the process survives, the error is a *PanicError,
// all goroutines are joined, and the column still works afterwards.
func TestWorkerPanicBecomesError(t *testing.T) {
	defer faultinject.Reset()
	col, sel := bigColumn(t, VBP, 64*512, 16)
	wantSum := must(col.SumContext(bg, sel, Parallel(4)))

	baseline := runtime.NumGoroutine()
	faultinject.Set(faultinject.SiteWorkerStart, func(args ...any) error {
		if args[0].(int) == 2 {
			panic("corrupt segment")
		}
		return nil
	})
	for i := 0; i < 10; i++ {
		_, err := col.SumContext(context.Background(), sel, Parallel(4))
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("SumContext with injected panic = %v, want *bpagg.PanicError", err)
		}
		if pe.Worker != 2 || len(pe.Stack) == 0 {
			t.Fatalf("PanicError worker=%d stackLen=%d, want worker 2 with stack", pe.Worker, len(pe.Stack))
		}
	}
	faultinject.Reset()

	// All workers joined: goroutine count returns to (near) baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Fatalf("goroutines leaked after worker panics: %d, baseline %d", g, baseline)
	}

	if got, err := col.SumContext(context.Background(), sel, Parallel(4)); err != nil || got != wantSum {
		t.Fatalf("SumContext after recovery = (%d, %v), want (%d, nil)", got, err, wantSum)
	}
}

// TestSlowSegmentDeadline uses the slow-segment injection to force a
// live deadline to expire mid-aggregation.
func TestSlowSegmentDeadline(t *testing.T) {
	defer faultinject.Reset()
	// Large enough that every worker's partition spans several
	// cancellation blocks — the deadline expires during the first block's
	// injected sleep and the next block's ctx check must catch it.
	col, sel := bigColumn(t, VBP, 3_000_000, 16)
	faultinject.Set(faultinject.SiteWorkerRange, func(args ...any) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := col.SumContext(ctx, sel, Parallel(4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SumContext with slow segments = %v, want DeadlineExceeded", err)
	}
}

func TestQuantileContextRejectsBadQ(t *testing.T) {
	col, sel := bigColumn(t, VBP, 640, 8)
	for _, q := range []float64{-0.1, 1.0001, 2, math.NaN()} {
		if _, _, err := col.QuantileContext(context.Background(), sel, q); err == nil {
			t.Fatalf("QuantileContext(q=%v) returned nil error", q)
		}
	}
	if v, ok, err := col.QuantileContext(context.Background(), sel, 0.5); err != nil || !ok {
		t.Fatalf("QuantileContext(0.5) = (%d,%v,%v)", v, ok, err)
	}
}

func TestContextAPIValidatesSelection(t *testing.T) {
	col, _ := bigColumn(t, VBP, 640, 8)
	bad := NewBitmap(100) // wrong length
	if _, err := col.SumContext(context.Background(), bad); err == nil {
		t.Fatal("SumContext with mismatched selection returned nil error")
	}
	if _, _, err := col.MedianContext(context.Background(), bad); err == nil {
		t.Fatal("MedianContext with mismatched selection returned nil error")
	}
	if _, err := col.SumContext(context.Background(), nil); err == nil {
		t.Fatal("SumContext with nil selection returned nil error")
	}
	if _, err := col.TopKContext(context.Background(), bad, 3); err == nil {
		t.Fatal("TopKContext with mismatched selection returned nil error")
	}
}

// TestContextAggregatesMatchPlain checks the Column ...Context
// aggregates against plain-slice evaluation of the same rows, serial and
// parallel.
func TestContextAggregatesMatchPlain(t *testing.T) {
	ctx := context.Background()
	for _, layout := range []Layout{VBP, HBP} {
		col, sel := bigColumn(t, layout, 64*101+17, 13)
		var vals []uint64
		var sum uint64
		sel.ForEach(func(row int) { vals = append(vals, col.Value(row)); sum += col.Value(row) })
		slices.Sort(vals)
		n := uint64(len(vals))
		check := func(name string, got any, err error, want any) {
			t.Helper()
			if err != nil || got != want {
				t.Fatalf("%v %s: (%v, %v), plain slices %v", layout, name, got, err, want)
			}
		}
		for _, opts := range [][]ExecOption{nil, {Parallel(4)}} {
			s, err := col.SumContext(ctx, sel, opts...)
			check("SumContext", s, err, sum)
			v, ok, err := col.MinContext(ctx, sel, opts...)
			check("MinContext", [2]any{v, ok}, err, [2]any{vals[0], true})
			v, ok, err = col.MaxContext(ctx, sel, opts...)
			check("MaxContext", [2]any{v, ok}, err, [2]any{vals[n-1], true})
			v, ok, err = col.MedianContext(ctx, sel, opts...)
			check("MedianContext", [2]any{v, ok}, err, [2]any{vals[(n+1)/2-1], true})
			v, ok, err = col.RankContext(ctx, sel, 17, opts...)
			check("RankContext", [2]any{v, ok}, err, [2]any{vals[16], true})
			f, ok, err := col.AvgContext(ctx, sel, opts...)
			check("AvgContext", [2]any{f, ok}, err, [2]any{float64(sum) / float64(n), true})
			c, err := col.CountContext(ctx, sel)
			check("CountContext", c, err, n)
		}
	}
}

func TestQueryContextAPI(t *testing.T) {
	ctx := context.Background()
	tbl := NewTable()
	tbl.AddColumn("price", VBP, 16)
	tbl.AddColumn("region", HBP, 3)
	tbl.AppendColumnar(map[string][]uint64{
		"price":  {10, 20, 30, 40, 50, 60},
		"region": {0, 1, 0, 1, 2, 2},
	})

	if _, err := tbl.ColumnErr("nope"); err == nil {
		t.Fatal("ColumnErr on unknown column returned nil error")
	}
	if _, err := tbl.Query().WhereErr("nope", Less(10)); err == nil {
		t.Fatal("WhereErr on unknown column returned nil error")
	}
	if _, err := tbl.Query().SumContext(ctx, "nope"); err == nil {
		t.Fatal("SumContext on unknown column returned nil error")
	}
	if _, err := tbl.Query().GroupByContext(ctx, "nope"); err == nil {
		t.Fatal("GroupByContext on unknown column returned nil error")
	}

	q, err := tbl.Query().WhereErr("price", GreaterEq(30))
	if err != nil {
		t.Fatalf("WhereErr = %v", err)
	}
	sum, err := q.SumContext(ctx, "price")
	if err != nil || sum != 30+40+50+60 {
		t.Fatalf("SumContext = (%d, %v), want (180, nil)", sum, err)
	}
	med, ok, err := q.MedianContext(ctx, "price")
	if err != nil || !ok || med != 40 {
		t.Fatalf("MedianContext = (%d,%v,%v), want (40,true,nil)", med, ok, err)
	}

	g, err := tbl.Query().GroupByContext(ctx, "region")
	if err != nil {
		t.Fatalf("GroupByContext = %v", err)
	}
	sums, err := g.SumContext(ctx, "price")
	if err != nil {
		t.Fatalf("Grouped.SumContext = %v", err)
	}
	want := []uint64{10 + 30, 20 + 40, 50 + 60}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("group sums = %v, want %v", sums, want)
		}
	}
	if _, err := g.MedianContext(ctx, "nope"); err == nil {
		t.Fatal("Grouped.MedianContext on unknown column returned nil error")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.Query().GroupByContext(canceled, "region"); !errors.Is(err, context.Canceled) {
		t.Fatalf("GroupByContext with canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := g.SumContext(canceled, "price"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Grouped.SumContext with canceled ctx = %v, want context.Canceled", err)
	}
}

// bg is the context the tests run an aggregate under when the test is not
// about the context.
var bg = context.Background()

// must2 is must for a ...Context answer with its presence flag (or
// flags): an error the test does not expect panics, which fails it.
func must2[T, U any](v T, ok U, err error) (T, U) {
	return must(v, err), ok
}

// Two plain aggregates stay beside the ...Context forms, because the repo
// benchmark calls them: Query/RangeQuery.Sum, a wrapper over SumContext
// (must), and Column.Count. TestPlainIsContext pins that each is its
// twin — whatever the Context method returns, the plain method returns or
// panics with, value for value, error for error — and
// TestOneAggregateDoor that no other plain aggregate exists.

// plainCase is one table: measure "v" (k bits, optionally with NULLs), a
// 12-bit predicate column "p" and a 3-bit grouping column "g", all in one
// layout, plus the WHERE predicate on "p".
type plainCase struct {
	name      string
	k         int
	val       func(i int) uint64
	nullEvery int
	pred      Predicate
}

var plainCases = []plainCase{
	{name: "no-nulls", k: 12, val: func(i int) uint64 { return uint64(i*2654435761) & 0xfff }, pred: Less(3000)},
	{name: "nulls", k: 12, val: func(i int) uint64 { return uint64(i*2654435761) & 0xfff }, nullEvery: 7, pred: Less(3000)},
	{name: "empty-selection", k: 12, val: func(i int) uint64 { return uint64(i) & 0xfff }, pred: Less(0)},
	// Every value is ≥ 2^63, so any two selected rows overflow SUM.
	{name: "overflow-possible", k: 64, val: func(i int) uint64 { return 1<<63 + uint64(i) }, pred: Less(3000)},
}

func (pc plainCase) build(layout Layout) *Table {
	const n = 64*5 + 7
	v, p, g := NewColumn(layout, pc.k), NewColumn(layout, 12), NewColumn(layout, 3)
	for i := 0; i < n; i++ {
		if pc.nullEvery > 0 && i%pc.nullEvery == 0 {
			v.AppendNull()
		} else {
			v.Append(pc.val(i))
		}
		p.Append(uint64(i*40503) & 0xfff)
		g.Append(uint64(i/50) & 7)
	}
	return NewTableFromColumns([]string{"v", "p", "g"}, []*Column{v, p, g})
}

// twin is one aggregate through both doors.
type twin struct {
	name  string
	plain func() any
	ctx   func() (any, error)
}

func c1[T any](v T, err error) (any, error)         { return v, err }
func c2[T, U any](v T, u U, err error) (any, error) { return [2]any{v, u}, err }

// checkTwin runs both doors: on a Context error the plain method must
// panic with an equal error value, otherwise it must return an equal
// result without panicking.
func checkTwin(t *testing.T, tw twin) {
	t.Helper()
	want, err := tw.ctx()
	var got, panicked any
	func() {
		defer func() { panicked = recover() }()
		got = tw.plain()
	}()
	if err != nil {
		if !reflect.DeepEqual(panicked, err) {
			t.Errorf("%s: Context error %#v, plain panic %#v", tw.name, err, panicked)
		}
		return
	}
	if panicked != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Context %v, plain %v (panic %v)", tw.name, want, got, panicked)
	}
}

func TestPlainIsContext(t *testing.T) {
	ctx := context.Background()
	for _, pc := range plainCases {
		for _, layout := range []Layout{VBP, HBP} {
			t.Run(fmt.Sprintf("%s/%v", pc.name, layout), func(t *testing.T) {
				tbl := pc.build(layout)
				col := tbl.Column("v")
				sel := tbl.Column("p").Scan(pc.pred)
				checkTwin(t, twin{"Column.Count", func() any { return col.Count(sel) }, func() (any, error) { return c1(col.CountContext(ctx, sel)) }})

				// Query, on the table (its one-part store) and split in
				// shards: a fresh query per call (Selection is sticky), once
				// on the lazy route (fuses when the planner allows) and once
				// with the selection materialized first.
				for _, store := range []struct {
					name string
					st   *ShardedTable
				}{{"table", PartitionTable(tbl)}, {"sharded", ShardTable(tbl, 100)}} {
					for _, bitmap := range []bool{false, true} {
						nq := func() *Query {
							q := store.st.Query().Where("p", pc.pred)
							if bitmap {
								q.Selection()
							}
							return q
						}
						for _, tw := range []twin{
							{"Query.Sum", func() any { return nq().Sum("v") }, func() (any, error) { return c1(nq().SumContext(ctx, "v")) }},
							{"Query.Sum(unknown column)", func() any { return nq().Sum("nope") }, func() (any, error) { return c1(nq().SumContext(ctx, "nope")) }},
							{"RangeQuery.Sum", func() any { return nq().Range(10, 300).Sum("v") }, func() (any, error) { return c1(nq().Range(10, 300).SumContext(ctx, "v")) }},
						} {
							tw.name = fmt.Sprintf("%s %s bitmap=%v", store.name, tw.name, bitmap)
							checkTwin(t, tw)
						}
					}
				}
			})
		}
	}
}

// TestQuantileRejectsNaN: every quantile entry point returns the range
// error for NaN instead of letting it reach the float→uint64 rank
// conversion (whose result is architecture-dependent).
func TestQuantileRejectsNaN(t *testing.T) {
	ctx := context.Background()
	nan := math.NaN()
	const want = "bpagg: quantile NaN outside [0,1]"
	for _, layout := range []Layout{VBP, HBP} {
		tbl := NewTable()
		tbl.AddColumn("v", layout, 8)
		tbl.AddColumn("g", layout, 2)
		tbl.AppendColumnar(map[string][]uint64{"v": {1, 2, 3, 4, 5}, "g": {0, 1, 0, 1, 0}})
		st := ShardTable(tbl, 2)
		col := tbl.Column("v")
		q := func() *Query { return tbl.Query().Where("v", Less(200)) }
		bq := func() *Query { q := q(); q.Selection(); return q }
		sq := func() *ShardedQuery { return st.Query().Where("v", Less(200)) }

		for name, quantile := range map[string]func() error{
			"Column":            func() error { _, _, err := col.QuantileContext(ctx, col.All(), nan); return err },
			"Query fused":       func() error { _, _, err := q().QuantileContext(ctx, "v", nan); return err },
			"Query bitmap":      func() error { _, _, err := bq().QuantileContext(ctx, "v", nan); return err },
			"RangeQuery":        func() error { _, _, err := q().Range(0, 4).QuantileContext(ctx, "v", nan); return err },
			"ShardedQuery":      func() error { _, _, err := sq().QuantileContext(ctx, "v", nan); return err },
			"ShardedRangeQuery": func() error { _, _, err := sq().Range(0, 4).QuantileContext(ctx, "v", nan); return err },
		} {
			if err := quantile(); err == nil || err.Error() != want {
				t.Errorf("%v %s: Context error %v, want %q", layout, name, err, want)
			}
		}
		if !q().Fused("v") {
			t.Errorf("%v: the lazy query did not plan fused", layout)
		}
		if _, _, err := must(sq().GroupByContext(ctx, "g")).QuantileOkContext(ctx, "v", nan); err == nil || err.Error() != want {
			t.Errorf("%v ShardedGrouped.QuantileOkContext error %v, want %q", layout, err, want)
		}
	}
}
