package bpagg

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// rangeTestVals builds a deterministic value sequence that exercises
// every fringe shape without overflowing 16-bit codes.
func rangeTestVals(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % 50000
	}
	return vals
}

// refRange computes the reference aggregates over vals[lo:hi) restricted
// to pass (nil = all rows).
func refRange(vals []uint64, lo, hi int, pass func(int) bool) (cnt, sum, mn, mx uint64, any bool) {
	if hi > len(vals) {
		hi = len(vals)
	}
	for i := lo; i < hi; i++ {
		if pass != nil && !pass(i) {
			continue
		}
		v := vals[i]
		if !any {
			mn, mx = v, v
		} else {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		cnt++
		sum += v
		any = true
	}
	return
}

func rangeTestTable(layout Layout, vals []uint64) *Table {
	tbl := NewTable()
	tbl.AddColumn("v", layout, 16)
	tbl.AddColumn("g", layout, 8)
	g := make([]uint64, len(vals))
	for i := range g {
		g[i] = uint64(i % 13)
	}
	tbl.AppendColumnar(map[string][]uint64{"v": vals, "g": g})
	return tbl
}

// TestRangeMatchesScan checks the index-served fast path and the
// filtered fallback path against a straight-line reference, over a
// battery of ranges hitting every fringe/interior/tail shape.
func TestRangeMatchesScan(t *testing.T) {
	const n = 1000
	vals := rangeTestVals(n)
	ranges := [][2]int{{0, n}, {0, 0}, {5, 5}, {0, 64}, {64, 128}, {1, 63},
		{63, 65}, {100, 900}, {130, 131}, {0, n + 999}, {960, n}, {970, 990}, {n, n + 5}}
	for _, layout := range []Layout{VBP, HBP} {
		tbl := rangeTestTable(layout, vals)
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			q := tbl.Query().Range(lo, hi)
			cnt, sum, mn, mx, any := refRange(vals, lo, hi, nil)
			if got := must(q.CountRowsContext(bg)); got != cnt {
				t.Fatalf("%s CountRows(%d,%d) = %d, want %d", layout, lo, hi, got, cnt)
			}
			if got := q.Sum("v"); got != sum {
				t.Fatalf("%s Sum(%d,%d) = %d, want %d", layout, lo, hi, got, sum)
			}
			if v, ok := must2(q.MinContext(bg, "v")); ok != any || (ok && v != mn) {
				t.Fatalf("%s Min(%d,%d) = (%d,%v), want (%d,%v)", layout, lo, hi, v, ok, mn, any)
			}
			if v, ok := must2(q.MaxContext(bg, "v")); ok != any || (ok && v != mx) {
				t.Fatalf("%s Max(%d,%d) = (%d,%v), want (%d,%v)", layout, lo, hi, v, ok, mx, any)
			}
			if v, ok := must2(q.AvgContext(bg, "v")); ok != any || (ok && v != float64(sum)/float64(cnt)) {
				t.Fatalf("%s Avg(%d,%d) = (%v,%v), want sum/cnt = %v", layout, lo, hi, v, ok, float64(sum)/float64(cnt))
			}

			// Filtered twin: the range becomes one more conjunct.
			fq := tbl.Query().Where("g", LessEq(5)).Range(lo, hi)
			fcnt, fsum, fmn, _, fany := refRange(vals, lo, hi, func(i int) bool { return i%13 <= 5 })
			if got := must(fq.CountRowsContext(bg)); got != fcnt {
				t.Fatalf("%s filtered CountRows(%d,%d) = %d, want %d", layout, lo, hi, got, fcnt)
			}
			if got := fq.Sum("v"); got != fsum {
				t.Fatalf("%s filtered Sum(%d,%d) = %d, want %d", layout, lo, hi, got, fsum)
			}
			if v, ok := must2(fq.MinContext(bg, "v")); ok != fany || (ok && v != fmn) {
				t.Fatalf("%s filtered Min(%d,%d) = (%d,%v), want (%d,%v)", layout, lo, hi, v, ok, fmn, fany)
			}
		}

		// The fast path must actually be index-served, with only the two
		// boundary segments touching packed words.
		q := tbl.Query().WithStats()
		_ = q.Range(1, n-1).Sum("v")
		st := q.Stats()
		if st.SegmentsIndexServed == 0 {
			t.Fatalf("%s: unfiltered range sum reported no index-served segments: %+v", layout, st)
		}
		if st.RangeFringeWords == 0 {
			t.Fatalf("%s: unaligned range reported no fringe words: %+v", layout, st)
		}
	}
}

// TestRangeMedianRankQuantile pins the rank-family fallback on ranges.
func TestRangeMedianRankQuantile(t *testing.T) {
	vals := rangeTestVals(300)
	for _, layout := range []Layout{VBP, HBP} {
		tbl := rangeTestTable(layout, vals)
		lo, hi := 37, 251
		sorted := append([]uint64(nil), vals[lo:hi]...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		q := tbl.Query().Range(lo, hi)
		if v, ok := must2(q.MedianContext(bg, "v")); !ok || v != sorted[(len(sorted)-1)/2] {
			t.Fatalf("%s Median = (%d,%v), want %d", layout, v, ok, sorted[(len(sorted)-1)/2])
		}
		if v, ok := must2(q.RankContext(bg, "v", 1)); !ok || v != sorted[0] {
			t.Fatalf("%s Rank(1) = (%d,%v), want %d", layout, v, ok, sorted[0])
		}
		if v, ok := must2(q.QuantileContext(bg, "v", 1)); !ok || v != sorted[len(sorted)-1] {
			t.Fatalf("%s Quantile(1) = (%d,%v), want %d", layout, v, ok, sorted[len(sorted)-1])
		}
	}
}

// TestRangeIndexExactWithStaleCaches pins the staleness contract: the
// index never trusts a cache that cannot vouch for exactness. Whether the
// caches go stale before the index is built or between appends, range
// answers stay exact.
func TestRangeIndexExactWithStaleCaches(t *testing.T) {
	vals := rangeTestVals(400)
	for _, layout := range []Layout{VBP, HBP} {
		// Stale before the index ever exists: builder recomputes from words.
		tbl := rangeTestTable(layout, vals)
		staleZones(t, tbl.Column("v"))
		_, sum, _, _, _ := refRange(vals, 10, 390, nil)
		if got := tbl.Query().Range(10, 390).Sum("v"); got != sum {
			t.Fatalf("%s: stale-cache range sum = %d, want %d", layout, got, sum)
		}

		// Stale after the index enabled, then more rows arrive: the new
		// segments must be recomputed, not served from the refused cache.
		tbl2 := rangeTestTable(layout, vals[:200])
		if got := tbl2.Query().Range(0, 200).Sum("v"); got != naiveSum(vals[:200]) {
			t.Fatalf("%s: warm range sum wrong", layout)
		}
		staleZones(t, tbl2.Column("v"))
		g := make([]uint64, 200)
		for i := range g {
			g[i] = uint64((200 + i) % 13)
		}
		tbl2.AppendColumnar(map[string][]uint64{"v": vals[200:400], "g": g})
		if got := tbl2.Query().Range(0, 400).Sum("v"); got != naiveSum(vals[:400]) {
			t.Fatalf("%s: post-stale appended range sum = %d, want %d", layout, got, naiveSum(vals[:400]))
		}
	}
}

// TestWindowMatchesRange checks tumbling, sliding, and gapped windows
// against per-window references, fast path and filtered fallback.
func TestWindowMatchesRange(t *testing.T) {
	const n = 500
	vals := rangeTestVals(n)
	shapes := [][2]int{{100, 100}, {128, 64}, {50, 150}, {700, 300}, {1, 1}}
	for _, layout := range []Layout{VBP, HBP} {
		tbl := rangeTestTable(layout, vals)
		for _, sh := range shapes {
			size, step := sh[0], sh[1]
			w := tbl.Query().Window(size, step)
			sums := must(w.SumContext(bg, "v"))
			counts := must(w.CountRowsContext(bg))
			mins, minOK := must2(w.MinContext(bg, "v"))
			avgs, avgOK := must2(w.AvgContext(bg, "v"))
			i := 0
			for b := 0; b < n; b += step {
				cnt, sum, mn, _, any := refRange(vals, b, b+size, nil)
				if counts[i] != cnt || sums[i] != sum {
					t.Fatalf("%s window(%d,%d)[%d]: count/sum = %d/%d, want %d/%d",
						layout, size, step, i, counts[i], sums[i], cnt, sum)
				}
				if minOK[i] != any || (any && mins[i] != mn) {
					t.Fatalf("%s window(%d,%d)[%d]: min = (%d,%v), want (%d,%v)",
						layout, size, step, i, mins[i], minOK[i], mn, any)
				}
				if avgOK[i] != any || (any && avgs[i] != float64(sum)/float64(cnt)) {
					t.Fatalf("%s window(%d,%d)[%d]: avg mismatch", layout, size, step, i)
				}
				i++
			}
			if i != len(sums) {
				t.Fatalf("%s window(%d,%d): %d windows, want %d", layout, size, step, len(sums), i)
			}

			// Filtered fallback windows.
			fw := tbl.Query().Where("g", Less(7)).Window(size, step)
			fsums := must(fw.SumContext(bg, "v"))
			i = 0
			for b := 0; b < n; b += step {
				_, sum, _, _, _ := refRange(vals, b, b+size, func(j int) bool { return j%13 < 7 })
				if fsums[i] != sum {
					t.Fatalf("%s filtered window(%d,%d)[%d]: sum = %d, want %d",
						layout, size, step, i, fsums[i], sum)
				}
				i++
			}
		}
	}
	// Empty table: empty slices, not nil panics.
	empty := NewTable()
	empty.AddColumn("v", VBP, 8)
	if got := must(empty.Query().Window(10, 10).SumContext(bg, "v")); len(got) != 0 {
		t.Fatalf("empty table window sum = %v, want empty", got)
	}
}

// TestWindowUnknownColumnEmpty: a window sweep resolves its column before
// the first window, so an unknown column is an error on an empty table or
// store too, as it is for every other aggregate; a known column still
// yields empty slices.
func TestWindowUnknownColumnEmpty(t *testing.T) {
	ctx := context.Background()
	empty := NewTable()
	empty.AddColumn("v", VBP, 8)
	type sweeper interface {
		SumContext(context.Context, string) ([]uint64, error)
		MinContext(context.Context, string) ([]uint64, []bool, error)
		MaxContext(context.Context, string) ([]uint64, []bool, error)
		AvgContext(context.Context, string) ([]float64, []bool, error)
	}
	for _, tc := range []struct {
		name string
		w    sweeper
	}{
		{"table", empty.Query().Window(10, 10)},
		{"store", ShardTable(empty, 256).Query().Window(10, 10)},
	} {
		for _, column := range []string{"nope", "v"} {
			sums, err1 := tc.w.SumContext(ctx, column)
			mins, _, err2 := tc.w.MinContext(ctx, column)
			maxs, _, err3 := tc.w.MaxContext(ctx, column)
			avgs, _, err4 := tc.w.AvgContext(ctx, column)
			for i, err := range []error{err1, err2, err3, err4} {
				if (err != nil) != (column == "nope") {
					t.Errorf("%s: aggregate %d of column %q: err %v", tc.name, i, column, err)
				}
			}
			if column == "v" && (len(sums)+len(mins)+len(maxs)+len(avgs) != 0 || sums == nil) {
				t.Errorf("%s: empty sweep = %v %v %v %v, want empty slices", tc.name, sums, mins, maxs, avgs)
			}
		}
	}
}

// TestWindowHugeSize: a window size near MaxInt used to wrap start+size
// negative — the flat index path counted MaxInt rows and summed nothing
// past the first window, the sharded sweep panicked on the inverted
// range. A size beyond the visible rows is the visible rows, on the index
// path and the filtered fallback, flat and sharded.
func TestWindowHugeSize(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		tbl := NewTable()
		tbl.AddColumn("v", layout, 8)
		tbl.AppendColumnar(map[string][]uint64{"v": {1, 2, 3}})
		st := ShardTable(tbl, 2)
		for _, tc := range []struct {
			name string
			w    *WindowQuery
		}{
			{"flat index", tbl.Query().Window(math.MaxInt, 1)},
			{"flat fallback", tbl.Query().Where("v", Less(200)).Window(math.MaxInt, 1)},
			{"sharded index", st.Query().Window(math.MaxInt, 1)},
			{"sharded fallback", st.Query().Where("v", Less(200)).Window(math.MaxInt, 1)},
		} {
			counts, sums := must(tc.w.CountRowsContext(bg)), must(tc.w.SumContext(bg, "v"))
			mins, _ := must2(tc.w.MinContext(bg, "v"))
			avgs, _ := must2(tc.w.AvgContext(bg, "v"))
			if !reflect.DeepEqual(counts, []uint64{3, 2, 1}) || !reflect.DeepEqual(sums, []uint64{6, 5, 3}) ||
				!reflect.DeepEqual(mins, []uint64{1, 2, 3}) || !reflect.DeepEqual(avgs, []float64{2, 2.5, 3}) {
				t.Errorf("%v %s: counts %v sums %v mins %v avgs %v, want [3 2 1] [6 5 3] [1 2 3] [2 2.5 3]",
					layout, tc.name, counts, sums, mins, avgs)
			}
		}
	}
}

// TestShardedRangeMatchesFlat checks the sharded fan-out (with shard
// pruning) against the flat engine, across thread counts and filters.
func TestShardedRangeMatchesFlat(t *testing.T) {
	const n = 1000
	vals := rangeTestVals(n)
	for _, layout := range []Layout{VBP, HBP} {
		flat := rangeTestTable(layout, vals)
		st := ShardTable(rangeTestTable(layout, vals), 256)
		for _, threads := range []int{1, 8} {
			for _, r := range [][2]int{{0, n}, {300, 520}, {255, 257}, {999, n + 50}, {40, 41}, {0, 0}} {
				lo, hi := r[0], r[1]
				fq := flat.Query().Range(lo, hi)
				sq := st.Query().With(Parallel(threads)).Range(lo, hi)
				if a, b := must(fq.CountRowsContext(bg)), must(sq.CountRowsContext(bg)); a != b {
					t.Fatalf("%s t=%d CountRows(%d,%d): sharded %d, flat %d", layout, threads, lo, hi, b, a)
				}
				if a, b := fq.Sum("v"), sq.Sum("v"); a != b {
					t.Fatalf("%s t=%d Sum(%d,%d): sharded %d, flat %d", layout, threads, lo, hi, b, a)
				}
				av, aok := must2(fq.MinContext(bg, "v"))
				bv, bok := must2(sq.MinContext(bg, "v"))
				if av != bv || aok != bok {
					t.Fatalf("%s t=%d Min(%d,%d): sharded (%d,%v), flat (%d,%v)", layout, threads, lo, hi, bv, bok, av, aok)
				}
				av, aok = must2(fq.MedianContext(bg, "v"))
				bv, bok = must2(sq.MedianContext(bg, "v"))
				if av != bv || aok != bok {
					t.Fatalf("%s t=%d Median(%d,%d): sharded (%d,%v), flat (%d,%v)", layout, threads, lo, hi, bv, bok, av, aok)
				}

				ffq := flat.Query().Where("g", GreaterEq(4)).Range(lo, hi)
				fsq := st.Query().With(Parallel(threads)).Where("g", GreaterEq(4)).Range(lo, hi)
				if a, b := ffq.Sum("v"), fsq.Sum("v"); a != b {
					t.Fatalf("%s t=%d filtered Sum(%d,%d): sharded %d, flat %d", layout, threads, lo, hi, b, a)
				}
			}

			// Window parity.
			fw := flat.Query().Window(300, 200)
			sw := st.Query().With(Parallel(threads)).Window(300, 200)
			fs, ss := must(fw.SumContext(bg, "v")), must(sw.SumContext(bg, "v"))
			if len(fs) != len(ss) {
				t.Fatalf("%s t=%d window counts differ: %d vs %d", layout, threads, len(fs), len(ss))
			}
			for i := range fs {
				if fs[i] != ss[i] {
					t.Fatalf("%s t=%d window[%d]: sharded %d, flat %d", layout, threads, i, ss[i], fs[i])
				}
			}
		}

		// Shards wholly outside the range must prune.
		q := st.Query().WithStats()
		_ = q.Range(300, 520).Sum("v")
		stats := q.Stats()
		if stats.ShardsScanned != 2 || stats.ShardsPruned != 2 {
			t.Fatalf("%s: range(300,520) scanned/pruned = %d/%d, want 2/2",
				layout, stats.ShardsScanned, stats.ShardsPruned)
		}
	}
}

// TestRangeAppendWhileQuery hammers concurrent appends against pinned
// range and window queries: every observed full-range SUM must equal the
// prefix total of some published epoch — never a torn in-between value.
// Run with -race to exercise the snapshot memory contract.
func TestRangeAppendWhileQuery(t *testing.T) {
	const (
		base  = 500
		batch = 97
		total = 500 + 97*40
	)
	f := func(i int) uint64 { return uint64(i%911 + 7) }
	all := make([]uint64, total)
	for i := range all {
		all[i] = f(i)
	}
	// Epochs publish only at batch boundaries, so the set of valid totals
	// is the prefix sums at base, base+batch, base+2·batch, ….
	validSum := map[uint64]int{}
	var run uint64
	for i := 0; i < total; i++ {
		run += all[i]
		if m := i + 1; m >= base && (m-base)%batch == 0 {
			validSum[run] = m
		}
	}
	for _, layout := range []Layout{VBP, HBP} {
		tbl := NewTable()
		tbl.AddColumn("v", layout, 10)
		tbl.AppendColumnar(map[string][]uint64{"v": all[:base]})
		// Enable the index before the writers start.
		if got := tbl.Query().Range(0, base).Sum("v"); got != naiveSum(all[:base]) {
			t.Fatalf("%s: warm-up sum wrong", layout)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		fail := make(chan string, 16)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := tbl.Query().Range(0, total+1).Sum("v")
					if _, ok := validSum[sum]; !ok {
						select {
						case fail <- layout.String() + ": torn range sum observed":
						default:
						}
						return
					}
					wsums := must(tbl.Query().Window(total+1, total+1).SumContext(bg, "v"))
					if len(wsums) > 0 {
						if _, ok := validSum[wsums[0]]; !ok {
							select {
							case fail <- layout.String() + ": torn window sum observed":
							default:
							}
							return
						}
					}
				}
			}()
		}
		for off := base; off < total; off += batch {
			tbl.AppendColumnar(map[string][]uint64{"v": all[off : off+batch]})
		}
		close(stop)
		wg.Wait()
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
		if got := tbl.Query().Range(0, total).Sum("v"); got != run {
			t.Fatalf("%s: final sum = %d, want %d", layout, got, run)
		}
	}
}
