package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// groupRankTable builds n rows of "g" (a kG-bit key in layout lg) and "v"
// (a kV-bit measure in layout lv, NULL on about nullPct percent of the rows),
// and the naive answer: each key's non-NULL values, sorted.
func groupRankTable(rng *rand.Rand, n, kG, kV int, lg, lv Layout, nullPct int) (*Table, map[uint64][]uint64) {
	g, v := NewColumn(lg, kG), NewColumn(lv, kV)
	vals := map[uint64][]uint64{}
	for i := 0; i < n; i++ {
		key := rng.Uint64() >> uint(64-kG)
		g.Append(key)
		if rng.Intn(100) < nullPct {
			v.AppendNull()
			if _, seen := vals[key]; !seen {
				vals[key] = nil // the key's group exists even if all its values are NULL
			}
			continue
		}
		x := rng.Uint64() >> uint(64-kV)
		v.Append(x)
		vals[key] = append(vals[key], x)
	}
	for _, xs := range vals {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	return NewTableFromColumns([]string{"g", "v"}, []*Column{g, v}), vals
}

// wantRank is the naive grouped rank: per ascending key, the value at
// rankOf(count) among its sorted values, ok false for a key with none.
func wantRank(vals map[uint64][]uint64, rankOf func(u uint64) (uint64, bool)) (keys, want []uint64, oks []bool) {
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want, oks = make([]uint64, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		if r, ok := rankOf(uint64(len(vals[k]))); ok {
			want[i], oks[i] = vals[k][r-1], true
		}
	}
	return keys, want, oks
}

// TestShardedGroupRankOneDescent: a grouped MEDIAN or QUANTILE over any
// number of shards is one radix descent over every shard's partition —
// the answers match the naive per-group sort, NULL-only groups report not
// ok, and the statement records one aggregate of one descent's rounds (k
// on VBP, chunks × bit-groups on HBP) and no scan, whatever the number of
// groups, shards or threads.
func TestShardedGroupRankOneDescent(t *testing.T) {
	ctx := context.Background()
	for _, lv := range []Layout{VBP, HBP} {
		rng := rand.New(rand.NewSource(26))
		flat, vals := groupRankTable(rng, 3000, 5, 12, HBP, lv, 30)
		for _, c := range []aggCall{{op: opMedian, column: "v"}, {op: opQuantile, column: "v", quantile: 0.9}} {
			keys, want, wantOks := wantRank(vals, c.rankOf)
			var rounds uint64
			for _, shards := range []int{1, 2, 7} {
				for _, threads := range []int{1, 4} {
					name := fmt.Sprintf("%v op %d, %d shards, %d threads", lv, c.op, shards, threads)
					q := ShardTable(flat, (flat.Rows()+shards-1)/shards).Query().With(Parallel(threads)).WithStats()
					g, err := q.GroupByContext(ctx, "g")
					if err != nil {
						t.Fatal(err)
					}
					before := q.Stats()
					got, oks, err := g.rankOkContext(ctx, c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(g.Keys(), keys) {
						t.Fatalf("%s: keys %v, want %v", name, g.Keys(), keys)
					}
					for i := range keys {
						if oks[i] != wantOks[i] || oks[i] && got[i] != want[i] {
							t.Fatalf("%s: group %d = %d (ok %v), want %d (ok %v)", name, keys[i], got[i], oks[i], want[i], wantOks[i])
						}
					}
					s := q.Stats().Sub(before)
					if s.Aggregates != 1 || s.Scans != 0 || s.RadixRounds == 0 {
						t.Errorf("%s: recorded %d aggregates, %d scans, %d rounds; want 1 descent and no scan", name, s.Aggregates, s.Scans, s.RadixRounds)
					}
					if rounds == 0 {
						rounds = s.RadixRounds
					} else if s.RadixRounds != rounds {
						t.Errorf("%s: %d rounds, %d on one shard", name, s.RadixRounds, rounds)
					}
				}
			}
			if lv == VBP && rounds != 12 {
				t.Errorf("VBP descent over a 12-bit measure took %d rounds, want 12", rounds)
			}
		}
	}
}

// TestShardedGroupRankCancels: the descent observes ctx at its rendezvous,
// so an expired deadline is an error, never an answer.
func TestShardedGroupRankCancels(t *testing.T) {
	flat, _ := groupRankTable(rand.New(rand.NewSource(27)), 2000, 4, 10, VBP, HBP, 10)
	g := must(ShardTable(flat, 700).Query().GroupByContext(bg, "g"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.MedianOkContext(ctx, "v"); !errors.Is(err, context.Canceled) {
		t.Fatalf("MedianOkContext under a cancelled context = %v, want context.Canceled", err)
	}
	if _, err := must(flat.Query().GroupByContext(bg, "g")).MedianContext(ctx, "v"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Grouped.MedianContext under a cancelled context = %v, want context.Canceled", err)
	}
}

// FuzzGroupRank checks grouped MEDIAN and QUANTILE against the naive
// per-group sort over fuzz-chosen key and measure widths and layouts (so
// the measure's windows and the key's may differ), NULL density, quantile,
// thread count and shard size, on the flat Grouped and the sharded store.
func FuzzGroupRank(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(3), uint8(12), uint8(0), uint8(20), uint8(128), uint8(1), uint8(0))
	f.Add(int64(2), uint16(3000), uint8(12), uint8(6), uint8(1), uint8(0), uint8(230), uint8(4), uint8(3))
	f.Add(int64(3), uint16(64), uint8(1), uint8(64), uint8(2), uint8(60), uint8(0), uint8(2), uint8(7))
	f.Add(int64(4), uint16(4000), uint8(9), uint8(17), uint8(3), uint8(95), uint8(255), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kG, kV, layouts, nullPct, q, threads, shards uint8) {
		if n == 0 {
			return
		}
		lg, lv := VBP, VBP
		if layouts&1 != 0 {
			lg = HBP
		}
		if layouts&2 != 0 {
			lv = HBP
		}
		rows, kGi, kVi := int(n), 1+int(kG)%14, 1+int(kV)%64
		tbl, vals := groupRankTable(rand.New(rand.NewSource(seed)), rows, kGi, kVi, lg, lv, int(nullPct)%100)
		quantile, th := float64(q)/255, 1+int(threads)%8
		shardRows := rows/(1+int(shards)%8) + 1

		ctx := context.Background()
		sg, err := ShardTable(tbl, shardRows).Query().With(Parallel(th)).GroupByContext(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []aggCall{{op: opMedian, column: "v"}, {op: opQuantile, column: "v", quantile: quantile}} {
			keys, want, wantOks := wantRank(vals, c.rankOf)
			got, oks, err := sg.rankOkContext(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sg.Keys(), keys) {
				t.Fatalf("keys %v, want %v", sg.Keys(), keys)
			}
			for i := range keys {
				if oks[i] != wantOks[i] || oks[i] && got[i] != want[i] {
					t.Fatalf("op %d q=%v: group %d = %d (ok %v), want %d (ok %v)", c.op, quantile, keys[i], got[i], oks[i], want[i], wantOks[i])
				}
			}
			if c.op != opMedian {
				continue
			}
			// The flat Grouped answers the strict MEDIAN, an error when a
			// group holds only NULLs.
			meds, err := must(tbl.Query().With(Parallel(th)).GroupByContext(bg, "g")).MedianContext(ctx, "v")
			allOK := !slices.Contains(wantOks, false)
			if allOK != (err == nil) || allOK && !reflect.DeepEqual(meds, want) {
				t.Fatalf("flat MEDIAN = %v (err %v), want %v (every group has a value: %v)", meds, err, want, allOK)
			}
		}
	})
}
