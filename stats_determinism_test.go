package bpagg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bpagg/internal/core"
)

// Work-counter determinism (DESIGN.md §8): ExecStats counts work
// analytically from the layout geometry and the filter, so the same
// query must report identical WordsTouched and SegmentsAggregated at any
// thread count — and, of course, identical answers. This is what makes
// the counters usable in regression tests: a perf assertion that drifted
// with GOMAXPROCS would be noise. The larger column spans several MIN/MAX
// prune blocks, so the workers at Threads=8 bound-prune separate blocks.

func TestStatsThreadDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const n, k = 5000, 14
	const big = 3*core.PruneBlock*64 + 100
	vals := make([]uint64, big)
	for i := range vals {
		vals[i] = rng.Uint64() & ((1 << k) - 1)
	}

	type result struct {
		label string
		value uint64
		ok    bool
	}
	runAll := func(col *Column, sel *Bitmap, threads int) ([]result, ExecStats) {
		rec := NewStatsCollector()
		opts := []ExecOption{Parallel(threads), CollectStats(rec)}
		var out []result
		out = append(out, result{"SUM", must(col.SumContext(bg, sel, opts...)), true})
		out = append(out, result{"COUNT", col.Count(sel), true})
		mn, okn := must2(col.MinContext(bg, sel, opts...))
		out = append(out, result{"MIN", mn, okn})
		mx, okx := must2(col.MaxContext(bg, sel, opts...))
		out = append(out, result{"MAX", mx, okx})
		md, okd := must2(col.MedianContext(bg, sel, opts...))
		out = append(out, result{"MEDIAN", md, okd})
		return out, rec.Snapshot()
	}

	for _, tc := range []struct {
		name   string
		layout Layout
		rows   int
	}{{"VBP", VBP, n}, {"HBP", HBP, n}, {"VBP/big", VBP, big}, {"HBP/big", HBP, big}} {
		t.Run(tc.name, func(t *testing.T) {
			col := NewColumn(tc.layout, k)
			col.Append(vals[:tc.rows]...)
			for _, sel := range []struct {
				name string
				bm   *Bitmap
			}{
				{"all", col.All()},
				{"filtered", col.Scan(Less(1 << (k - 2)))},
				{"sparse", col.Scan(Equal(vals[17]))},
			} {
				t.Run(sel.name, func(t *testing.T) {
					r1, s1 := runAll(col, sel.bm, 1)
					r8, s8 := runAll(col, sel.bm, 8)
					for i := range r1 {
						if r1[i] != r8[i] {
							t.Errorf("%s: Threads=1 %+v, Threads=8 %+v", r1[i].label, r1[i], r8[i])
						}
					}
					if s1.WordsTouched != s8.WordsTouched {
						t.Errorf("WordsTouched: Threads=1 %d, Threads=8 %d", s1.WordsTouched, s8.WordsTouched)
					}
					if s1.SegmentsAggregated != s8.SegmentsAggregated {
						t.Errorf("SegmentsAggregated: Threads=1 %d, Threads=8 %d",
							s1.SegmentsAggregated, s8.SegmentsAggregated)
					}
					if s1.RadixRounds != s8.RadixRounds {
						t.Errorf("RadixRounds: Threads=1 %d, Threads=8 %d", s1.RadixRounds, s8.RadixRounds)
					}
					if s1.Aggregates != s8.Aggregates {
						t.Errorf("Aggregates: Threads=1 %d, Threads=8 %d", s1.Aggregates, s8.Aggregates)
					}
					if sel.name == "all" && s1.WordsTouched == 0 {
						t.Error("WordsTouched = 0 on a full selection; counters not wired")
					}
					if s1.SegmentsBoundPruned != s8.SegmentsBoundPruned {
						t.Errorf("SegmentsBoundPruned: Threads=1 %d, Threads=8 %d", s1.SegmentsBoundPruned, s8.SegmentsBoundPruned)
					}
					if sel.name == "all" && s1.SegmentsBoundPruned == 0 {
						t.Error("SegmentsBoundPruned = 0 for MIN/MAX of a full uniform selection; pruning not wired")
					}
				})
			}
		})
	}
}

// TestStatsConcurrentQueries hammers one shared collector from many
// concurrent queries — the serving-process shape — and checks the totals
// under the race detector. Counters are deterministic per query, so the
// aggregate must be exactly queries × one query's stats.
func TestStatsConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 2000, 12
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & ((1 << k) - 1)
	}
	col := NewColumn(VBP, k)
	col.Append(vals...)

	one := NewStatsCollector()
	sel := col.ScanStats(Less(1<<11), one)
	must(col.SumContext(bg, sel, CollectStats(one)))
	must2(col.MedianContext(bg, sel, CollectStats(one)))
	want := one.Snapshot()

	const goroutines, perG = 8, 25
	shared := NewStatsCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := col.ScanStats(Less(1<<11), shared)
				must(col.SumContext(bg, s, CollectStats(shared)))
				must2(col.MedianContext(bg, s, CollectStats(shared)))
			}
		}()
	}
	wg.Wait()
	got := shared.Snapshot()
	const q = goroutines * perG
	if got.Scans != q*want.Scans || got.Aggregates != q*want.Aggregates {
		t.Errorf("counts: got scans=%d aggs=%d, want %d and %d",
			got.Scans, got.Aggregates, q*want.Scans, q*want.Aggregates)
	}
	if got.WordsCompared != q*want.WordsCompared {
		t.Errorf("WordsCompared = %d, want %d", got.WordsCompared, q*want.WordsCompared)
	}
	if got.WordsTouched != q*want.WordsTouched {
		t.Errorf("WordsTouched = %d, want %d", got.WordsTouched, q*want.WordsTouched)
	}
	if got.SegmentsAggregated != q*want.SegmentsAggregated {
		t.Errorf("SegmentsAggregated = %d, want %d", got.SegmentsAggregated, q*want.SegmentsAggregated)
	}
	if got.RadixRounds != q*want.RadixRounds {
		t.Errorf("RadixRounds = %d, want %d", got.RadixRounds, q*want.RadixRounds)
	}
}

// TestStatsDisabledIsDefault pins the disabled-path guarantee at the API
// level: without CollectStats, queries run and a nil collector snapshot
// is all zeros.
func TestStatsDisabledIsDefault(t *testing.T) {
	col := NewColumn(VBP, 8)
	col.Append(1, 2, 3, 4, 5)
	if got := must(col.SumContext(bg, col.All())); got != 15 {
		t.Fatalf("Sum = %d", got)
	}
	var rec *StatsCollector
	if s := rec.Snapshot(); s != (ExecStats{}) {
		t.Errorf("nil collector snapshot = %+v", s)
	}
	if bm := col.ScanStats(Less(4), nil); bm.Count() != 3 {
		t.Errorf("nil-rec ScanStats count = %d", bm.Count())
	}
}

func ExampleColumn_ScanStats() {
	col := NewColumn(VBP, 8)
	for v := uint64(0); v < 256; v++ {
		col.Append(v) // sorted, so zone maps prune range scans
	}
	rec := NewStatsCollector()
	sel := col.ScanStats(Less(64), rec)
	sum := must(col.SumContext(bg, sel, CollectStats(rec)))
	s := rec.Snapshot()
	fmt.Println("sum:", sum)
	// Segment 0 (values 0-63) zone-prunes as all-match and segments 1-3
	// as no-match, so no segment needs its words compared.
	fmt.Println("scanned:", s.SegmentsScanned, "pruned:", s.SegmentsPruned())
	// Output:
	// sum: 2016
	// scanned: 0 pruned: 4
}
