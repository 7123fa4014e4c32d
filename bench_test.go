// Benchmarks regenerating the paper's evaluation (one family per figure or
// table of §IV). Each sub-benchmark reports ns/tuple so results compare
// directly with the paper's cycles/tuple (divide by your clock to convert).
//
//	go test -bench 'Fig5'   — aggregation BP vs NBP across selectivities
//	go test -bench 'Fig6'   — across value widths
//	go test -bench 'Fig7'   — across data sizes
//	go test -bench 'Fig8'   — multi-threading acceleration
//	go test -bench 'Table2' — TPC-H style queries, scan vs aggregation
//
// The cmd/bpagg-bench tool prints the same experiments as paper-style
// tables with speedup columns; see EXPERIMENTS.md for paper-vs-measured.
package bpagg_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bpagg"
	"bpagg/internal/bench"
	"bpagg/internal/bitvec"
	"bpagg/internal/nbp"
	"bpagg/internal/parallel"
	"bpagg/internal/scan"
	"bpagg/internal/tpch"
)

// benchN is the micro-benchmark column size. Scaled down from the paper's
// one billion tuples; the algorithms are streaming, so per-tuple costs are
// size-independent once the column exceeds cache.
const benchN = 1 << 20

var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*bench.Workload{}
)

// workload returns a cached micro-benchmark fixture.
func workload(n, k int, sel float64) *bench.Workload {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	key := fmt.Sprintf("%d/%d/%v", n, k, sel)
	w, ok := workloadCache[key]
	if !ok {
		w = bench.NewWorkload(n, k, sel, 1)
		workloadCache[key] = w
	}
	return w
}

// benchOp runs fn b.N times and reports ns/tuple.
func benchOp(b *testing.B, n int, fn func()) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}

// bg is the context the tests and benchmarks of this package run an
// aggregate under when they are not about the context.
var bg = context.Background()

// must and must2 return a ...Context answer (with its presence flag, for
// must2): an error the caller does not expect panics, which fails the test
// or benchmark.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[T, U any](v T, ok U, err error) (T, U) {
	return must(v, err), ok
}

// aggCases enumerates the measured aggregate kernels.
var aggCases = []struct {
	layout tpch.Layout
	agg    bench.Agg
}{
	{tpch.VBP, bench.AggSum}, {tpch.VBP, bench.AggMinMax}, {tpch.VBP, bench.AggMedian},
	{tpch.HBP, bench.AggSum}, {tpch.HBP, bench.AggMinMax}, {tpch.HBP, bench.AggMedian},
}

func bpRunner(w *bench.Workload, layout tpch.Layout, agg bench.Agg, o parallel.Options) func() {
	ctx := context.Background()
	median := (uint64(w.F.Count()) + 1) / 2
	switch {
	case layout == tpch.VBP && agg == bench.AggSum:
		return func() { parallel.VBPSumCtx(ctx, w.V, w.F, o) }
	case layout == tpch.VBP && agg == bench.AggMinMax:
		return func() { parallel.VBPMinCtx(ctx, w.V, w.F, o) }
	case layout == tpch.VBP && agg == bench.AggMedian:
		return func() { parallel.VBPRankCtx(ctx, w.V, w.F, median, o) }
	case layout == tpch.HBP && agg == bench.AggSum:
		return func() { parallel.HBPSumCtx(ctx, w.H, w.F, o) }
	case layout == tpch.HBP && agg == bench.AggMinMax:
		return func() { parallel.HBPMinCtx(ctx, w.H, w.F, o) }
	default:
		return func() { parallel.HBPRankCtx(ctx, w.H, w.F, median, o) }
	}
}

func nbpRunner(w *bench.Workload, layout tpch.Layout, agg bench.Agg) func() {
	var src interface {
		At(i int) uint64
		Len() int
	}
	if layout == tpch.VBP {
		src = w.V
	} else {
		src = w.H
	}
	switch agg {
	case bench.AggSum:
		return func() { nbp.Sum(src, w.F, nbp.Options{}) }
	case bench.AggMinMax:
		return func() { nbp.Min(src, w.F, nbp.Options{}) }
	default:
		return func() { nbp.Median(src, w.F, nbp.Options{}) }
	}
}

// BenchmarkFig5 reproduces Figure 5: aggregation cost of both methods
// across filter selectivities (k=25, single thread).
func BenchmarkFig5(b *testing.B) {
	for _, sel := range []float64{0.01, 0.1, 0.5, 1.0} {
		w := workload(benchN, 25, sel)
		for _, c := range aggCases {
			b.Run(fmt.Sprintf("%v/%v/sel=%.2f/NBP", c.layout, c.agg, sel), func(b *testing.B) {
				benchOp(b, w.N, nbpRunner(w, c.layout, c.agg))
			})
			b.Run(fmt.Sprintf("%v/%v/sel=%.2f/BP", c.layout, c.agg, sel), func(b *testing.B) {
				benchOp(b, w.N, bpRunner(w, c.layout, c.agg, parallel.Options{}))
			})
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: aggregation cost across value widths
// (selectivity 0.1, single thread).
func BenchmarkFig6(b *testing.B) {
	for _, k := range []int{2, 10, 25, 50} {
		w := workload(benchN, k, 0.1)
		for _, c := range aggCases {
			b.Run(fmt.Sprintf("%v/%v/k=%d/NBP", c.layout, c.agg, k), func(b *testing.B) {
				benchOp(b, w.N, nbpRunner(w, c.layout, c.agg))
			})
			b.Run(fmt.Sprintf("%v/%v/k=%d/BP", c.layout, c.agg, k), func(b *testing.B) {
				benchOp(b, w.N, bpRunner(w, c.layout, c.agg, parallel.Options{}))
			})
		}
	}
}

// BenchmarkFig7 reproduces Figure 7: aggregation cost across data sizes
// (k=25, selectivity 0.1, single thread). Linear scaling shows as constant
// ns/tuple.
func BenchmarkFig7(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		n := benchN * mult
		w := workload(n, 25, 0.1)
		for _, c := range aggCases {
			b.Run(fmt.Sprintf("%v/%v/n=%dM/NBP", c.layout, c.agg, n>>20), func(b *testing.B) {
				benchOp(b, w.N, nbpRunner(w, c.layout, c.agg))
			})
			b.Run(fmt.Sprintf("%v/%v/n=%dM/BP", c.layout, c.agg, n>>20), func(b *testing.B) {
				benchOp(b, w.N, bpRunner(w, c.layout, c.agg, parallel.Options{}))
			})
		}
	}
}

// BenchmarkFig8 reproduces Figure 8's multi-threading (MT) bars: compare
// against the serial rows to obtain the speedup.
func BenchmarkFig8(b *testing.B) {
	w := workload(benchN, 25, 0.1)
	modes := []struct {
		name string
		opts parallel.Options
	}{
		{"serial", parallel.Options{}},
		{"MT", parallel.Options{Threads: 4}},
	}
	for _, c := range aggCases {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%v/%v/%s", c.layout, c.agg, m.name), func(b *testing.B) {
				benchOp(b, w.N, bpRunner(w, c.layout, c.agg, m.opts))
			})
		}
	}
}

var (
	tpchMu    sync.Mutex
	tpchCache = map[string]*tpchFixture{}
)

type tpchFixture struct {
	inst *tpch.Instance
	f    *bitvec.Bitmap
}

func tpchInstance(q tpch.Query, layout tpch.Layout, n int) *tpchFixture {
	tpchMu.Lock()
	defer tpchMu.Unlock()
	key := fmt.Sprintf("%s/%v/%d", q.Name, layout, n)
	fx, ok := tpchCache[key]
	if !ok {
		inst := tpch.Build(q, layout, n, 1)
		fx = &tpchFixture{inst: inst, f: inst.Scan()}
		tpchCache[key] = fx
	}
	return fx
}

// BenchmarkTable2 reproduces Table II: per-query bit-parallel scan cost and
// aggregation cost under both methods, per layout.
func BenchmarkTable2(b *testing.B) {
	const n = 1 << 19
	for _, layout := range []tpch.Layout{tpch.VBP, tpch.HBP} {
		for _, q := range tpch.Queries() {
			fx := tpchInstance(q, layout, n)
			b.Run(fmt.Sprintf("%v/%s/scan", layout, q.Name), func(b *testing.B) {
				benchOp(b, n, func() { fx.inst.Scan() })
			})
			b.Run(fmt.Sprintf("%v/%s/aggNBP", layout, q.Name), func(b *testing.B) {
				benchOp(b, n, func() { fx.inst.RunAggNBP(fx.f, nbp.Options{}) })
			})
			b.Run(fmt.Sprintf("%v/%s/aggBP", layout, q.Name), func(b *testing.B) {
				benchOp(b, n, func() { fx.inst.RunAggBP(fx.f, parallel.Options{}) })
			})
		}
	}
}

// BenchmarkScan measures the filter-scan substrate on its own: the cost a
// query pays before aggregation starts (BitWeaving's result, included for
// context).
func BenchmarkScan(b *testing.B) {
	w := workload(benchN, 25, 0.1)
	p := scan.Predicate{Op: scan.LT, A: 1 << 22}
	b.Run("VBP/less-than", func(b *testing.B) {
		benchOp(b, w.N, func() { scan.VBPStats(w.V, p, nil) })
	})
	b.Run("HBP/less-than", func(b *testing.B) {
		benchOp(b, w.N, func() { scan.HBPStats(w.H, p, nil) })
	})
}

// BenchmarkFacade measures the public API end to end: scan + sum through
// Column, the path applications actually call.
func BenchmarkFacade(b *testing.B) {
	vals := make([]uint64, benchN)
	for i := range vals {
		vals[i] = uint64(i) & ((1 << 25) - 1)
	}
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		col := bpagg.FromValues(layout, 25, vals)
		b.Run(fmt.Sprintf("%v/scan+sum", layout), func(b *testing.B) {
			benchOp(b, benchN, func() {
				sel := col.Scan(bpagg.Less(1 << 22))
				must(col.SumContext(bg, sel))
			})
		})
	}
}
