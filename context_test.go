package bpagg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
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
// return context.DeadlineExceeded well before full-scan time.
func TestMedianDeadlineCancellation(t *testing.T) {
	const n = 1_500_000
	for _, layout := range []Layout{VBP, HBP} {
		col, sel := bigColumn(t, layout, n, 24)
		opts := []ExecOption{Parallel(4)}

		start := time.Now()
		want, ok, err := col.MedianContext(context.Background(), sel, opts...)
		full := time.Since(start)
		if err != nil || !ok {
			t.Fatalf("%v MedianContext baseline: ok=%v err=%v", layout, ok, err)
		}
		if m, mok := col.Median(sel, opts...); m != want || !mok {
			t.Fatalf("%v MedianContext=%d disagrees with Median=%d", layout, want, m)
		}

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
		start = time.Now()
		_, _, err = col.MedianContext(ctx, sel, opts...)
		canceled := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v MedianContext with expired deadline = %v, want DeadlineExceeded", layout, err)
		}
		if canceled > full/2 {
			t.Fatalf("%v cancelled median took %v, full scan %v — cancellation not prompt", layout, canceled, full)
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
	wantSum := col.Sum(sel, Parallel(4))

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
}

func TestContextAggregatesMatchPlain(t *testing.T) {
	ctx := context.Background()
	for _, layout := range []Layout{VBP, HBP} {
		col, sel := bigColumn(t, layout, 64*101+17, 13)
		for _, opts := range [][]ExecOption{nil, {Parallel(4)}, {Access(Auto)}} {
			if got, err := col.SumContext(ctx, sel, opts...); err != nil || got != col.Sum(sel, opts...) {
				t.Fatalf("%v SumContext: (%d,%v) vs %d", layout, got, err, col.Sum(sel, opts...))
			}
			wv, wok := col.Min(sel, opts...)
			if got, ok, err := col.MinContext(ctx, sel, opts...); err != nil || got != wv || ok != wok {
				t.Fatalf("%v MinContext: (%d,%v,%v) vs (%d,%v)", layout, got, ok, err, wv, wok)
			}
			wv, wok = col.Max(sel, opts...)
			if got, ok, err := col.MaxContext(ctx, sel, opts...); err != nil || got != wv || ok != wok {
				t.Fatalf("%v MaxContext: (%d,%v,%v) vs (%d,%v)", layout, got, ok, err, wv, wok)
			}
			wv, wok = col.Median(sel, opts...)
			if got, ok, err := col.MedianContext(ctx, sel, opts...); err != nil || got != wv || ok != wok {
				t.Fatalf("%v MedianContext: (%d,%v,%v) vs (%d,%v)", layout, got, ok, err, wv, wok)
			}
			wf, wok := col.Avg(sel, opts...)
			if got, ok, err := col.AvgContext(ctx, sel, opts...); err != nil || got != wf || ok != wok {
				t.Fatalf("%v AvgContext: (%v,%v,%v) vs (%v,%v)", layout, got, ok, err, wf, wok)
			}
			wv, wok = col.Rank(sel, 17, opts...)
			if got, ok, err := col.RankContext(ctx, sel, 17, opts...); err != nil || got != wv || ok != wok {
				t.Fatalf("%v RankContext: (%d,%v,%v) vs (%d,%v)", layout, got, ok, err, wv, wok)
			}
			wc, err := col.CountContext(ctx, sel)
			if err != nil || wc != col.Count(sel) {
				t.Fatalf("%v CountContext: (%d,%v) vs %d", layout, wc, err, col.Count(sel))
			}
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
