package bpagg

import (
	"context"
	"math/rand"
	"testing"

	"bpagg/internal/oracle"
)

// One-shard parity of the partitioned store: a ShardedQuery keeps each
// shard's Query, so a selection materialized for one aggregate serves the
// next, and a rank is one radix descent over every live shard's
// candidates. Together they make a one-shard store do exactly the flat
// engine's work — what lets the SQL layer execute against the store alone.

// parityTable builds rows rows of a (12-bit VBP, ascending so shard bounds
// can prune), b (9-bit HBP, uniform) and g (3-bit VBP group key).
func parityTable(rows int) (*Table, map[string][]uint64) {
	rng := rand.New(rand.NewSource(29))
	vals := map[string][]uint64{"a": make([]uint64, rows), "b": make([]uint64, rows), "g": make([]uint64, rows)}
	for i := 0; i < rows; i++ {
		vals["a"][i] = uint64(i * 4096 / rows)
		vals["b"][i] = uint64(rng.Intn(512))
		vals["g"][i] = uint64(rng.Intn(8))
	}
	t := NewTable()
	t.AddColumn("a", VBP, 12)
	t.AddColumn("b", HBP, 9)
	t.AddColumn("g", VBP, 3)
	t.AppendColumnar(vals)
	return t, vals
}

// TestShardedQueryScansOncePerShard: four two-phase aggregates (a VBP
// filter over an HBP measure cannot fuse) over two clauses on a 16-shard
// store record one scan per clause per live shard — not one per
// aggregate, which is what rebuilding the per-shard Query used to cost.
func TestShardedQueryScansOncePerShard(t *testing.T) {
	flat, _ := parityTable(16 * 256)
	st := ShardTable(flat, 256)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		lo, hi uint64
		live   uint64
	}{{"all shards live", 0, 4095, 16}, {"three shards live", 600, 1100, 3}} {
		q := st.Query().WithStats().Where("a", GreaterEq(tc.lo)).Where("a", LessEq(tc.hi))
		if q.Fused("b") {
			t.Fatal("mixed window widths must not fuse")
		}
		if _, _, err := q.SumCountContext(ctx, "b"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.MinContext(ctx, "b"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.MaxContext(ctx, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := q.CountContext(ctx, "b"); err != nil {
			t.Fatal(err)
		}
		s := q.Stats()
		if s.Scans != 2*tc.live || s.ShardsScanned != 4*tc.live {
			t.Errorf("%s: %d scans over %d shard visits, want %d scans (2 clauses x %d shards) over %d visits",
				tc.name, s.Scans, s.ShardsScanned, 2*tc.live, tc.live, 4*tc.live)
		}
	}
}

// TestShardedRankOneLiveShard: with one live shard MEDIAN, QUANTILE and
// the grouped MEDIAN record the flat engine's radix rounds and scans — no
// counting fan-outs — whether the store has one shard or prunes down to
// one. Over 2, 4 and 16 live shards, filtered and ranged, MEDIAN, QUANTILE
// and RANK are one plan and one descent: they equal the oracle, and record
// one aggregate, one visit per live shard and the flat table's rounds — also
// under a nil ctx, into a collector given by CollectStats.
func TestShardedRankOneLiveShard(t *testing.T) {
	const rows = 2048
	flat, vals := parityTable(rows)
	ctx := context.Background()
	where := func(lo, hi uint64) (*Query, []bool) {
		sel := make([]bool, rows)
		for i, v := range vals["a"] {
			sel[i] = v >= lo && v <= hi
		}
		return flat.Query().WithStats().Where("a", GreaterEq(lo)).Where("a", LessEq(hi)), sel
	}
	ob := oracle.New(vals["b"])

	// Flat reference work for a filter inside rows [512, 1024): a's values
	// 1024..2047.
	fq, sel := where(1100, 1900)
	wantMed, _, err := fq.MedianContext(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	medStats := fq.Stats()
	fq, _ = where(1100, 1900)
	wantQ, _, err := fq.QuantileContext(ctx, "b", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	quantStats := fq.Stats()
	if om, _ := ob.Median(sel); om != wantMed {
		t.Fatalf("flat median %d, oracle %d", wantMed, om)
	}
	if medStats.RadixRounds == 0 {
		t.Fatal("flat MEDIAN recorded no radix rounds")
	}

	for _, tc := range []struct {
		name string
		st   *ShardedTable
	}{{"one shard", PartitionTable(flat)}, {"pruned to one of four", ShardTable(flat, 512)}} {
		sq := tc.st.Query().WithStats().Where("a", GreaterEq(1100)).Where("a", LessEq(1900))
		got, _, err := sq.MedianContext(ctx, "b")
		if err != nil {
			t.Fatal(err)
		}
		if s := sq.Stats(); got != wantMed || s.RadixRounds != medStats.RadixRounds || s.Scans != medStats.Scans || s.ShardsScanned != 1 {
			t.Errorf("%s MEDIAN = %d (rounds %d, scans %d, visits %d), flat %d (rounds %d, scans %d)", tc.name,
				got, s.RadixRounds, s.Scans, s.ShardsScanned, wantMed, medStats.RadixRounds, medStats.Scans)
		}
		sq = tc.st.Query().WithStats().Where("a", GreaterEq(1100)).Where("a", LessEq(1900))
		got, _, err = sq.QuantileContext(ctx, "b", 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if s := sq.Stats(); got != wantQ || s.RadixRounds != quantStats.RadixRounds || s.Scans != quantStats.Scans {
			t.Errorf("%s QUANTILE = %d (rounds %d, scans %d), flat %d (rounds %d, scans %d)", tc.name,
				got, s.RadixRounds, s.Scans, wantQ, quantStats.RadixRounds, quantStats.Scans)
		}
		// The same through a row range that lies inside the shard.
		rq := tc.st.Query().WithStats().Range(600, 900)
		frq := flat.Query().WithStats().Range(600, 900)
		got, _, err = rq.MedianContext(ctx, "b")
		want, _, ferr := frq.MedianContext(ctx, "b")
		if err != nil || ferr != nil {
			t.Fatal(err, ferr)
		}
		if got != want || rq.stats.Snapshot().RadixRounds != frq.stats.Snapshot().RadixRounds || rq.stats.Snapshot().Scans != 0 {
			t.Errorf("%s range MEDIAN = %d (rounds %d, scans %d), flat %d (rounds %d)", tc.name,
				got, rq.stats.Snapshot().RadixRounds, rq.stats.Snapshot().Scans, want, frq.stats.Snapshot().RadixRounds)
		}
	}

	// Grouped MEDIAN: per group, the flat engine runs one radix descent
	// over the group's selection.
	fq, sel = where(1100, 1900)
	fg, err := fq.GroupByContext(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, err := fg.MedianContext(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	groupStats := fq.Stats()
	sq := ShardTable(flat, 512).Query().WithStats().Where("a", GreaterEq(1100)).Where("a", LessEq(1900))
	sg, err := sq.GroupByContext(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, oks, err := sg.MedianOkContext(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantGroups {
		if !oks[i] || gotGroups[i] != wantGroups[i] {
			t.Errorf("group %d MEDIAN = %d (ok %v), flat %d", i, gotGroups[i], oks[i], wantGroups[i])
		}
	}
	if s := sq.Stats(); s.RadixRounds != groupStats.RadixRounds || s.Scans != groupStats.Scans {
		t.Errorf("grouped MEDIAN: rounds %d scans %d, flat rounds %d scans %d", s.RadixRounds, s.Scans, groupStats.RadixRounds, groupStats.Scans)
	}

	// Two and more live shards: one plan, one descent. a = 2·row, so
	// [lo, hi] selects rows lo/2 … hi/2; a range view cuts it further.
	for _, tc := range []struct {
		shardRows int
		lo, hi    uint64
		rlo, rhi  int // rlo == rhi: unranged
		live      uint64
	}{
		{512, 900, 1100, 0, 0, 2}, {512, 100, 4000, 0, 0, 4}, {128, 100, 4000, 0, 0, 16},
		{512, 100, 4000, 300, 700, 2}, {512, 100, 4000, 100, 1900, 4}, {128, 100, 4000, 60, 1990, 16},
	} {
		st := ShardTable(flat, tc.shardRows)
		fq, sel := where(tc.lo, tc.hi)
		type rankView interface {
			MedianContext(context.Context, string) (uint64, bool, error)
			QuantileContext(context.Context, string, float64) (uint64, bool, error)
			RankContext(context.Context, string, uint64) (uint64, bool, error)
		}
		var fv rankView = fq
		sq := func() (rankView, *StatsCollector) {
			q := st.Query().WithStats().Where("a", GreaterEq(tc.lo)).Where("a", LessEq(tc.hi))
			if tc.rlo < tc.rhi {
				return q.Range(tc.rlo, tc.rhi), q.stats
			}
			return q, q.stats
		}
		if tc.rlo < tc.rhi {
			fv = fq.Range(tc.rlo, tc.rhi)
			for i := range sel {
				sel[i] = sel[i] && i >= tc.rlo && i < tc.rhi
			}
		}
		// The same query with its collector given as an option instead of
		// WithStats.
		optq := func() (rankView, *StatsCollector) {
			rec := NewStatsCollector()
			q := st.Query().With(CollectStats(rec)).Where("a", GreaterEq(tc.lo)).Where("a", LessEq(tc.hi))
			if tc.rlo < tc.rhi {
				return q.Range(tc.rlo, tc.rhi), rec
			}
			return q, rec
		}
		for _, op := range []struct {
			name   string
			run    func(context.Context, rankView) (uint64, bool, error)
			oracle func() (uint64, bool)
		}{
			{"MEDIAN", func(ctx context.Context, v rankView) (uint64, bool, error) { return v.MedianContext(ctx, "b") },
				func() (uint64, bool) { return ob.Median(sel) }},
			{"QUANTILE(0.9)", func(ctx context.Context, v rankView) (uint64, bool, error) { return v.QuantileContext(ctx, "b", 0.9) },
				func() (uint64, bool) { return ob.Quantile(sel, 0.9) }},
			{"RANK(37)", func(ctx context.Context, v rankView) (uint64, bool, error) { return v.RankContext(ctx, "b", 37) },
				func() (uint64, bool) { return ob.Rank(sel, 37) }},
		} {
			before := fq.Stats().RadixRounds
			if _, _, err := op.run(ctx, fv); err != nil {
				t.Fatal(err)
			}
			flatRounds := fq.Stats().RadixRounds - before
			v, rec := sq()
			got, ok, err := op.run(ctx, v)
			want, wok := op.oracle()
			s := rec.Snapshot()
			if err != nil || ok != wok || got != want {
				t.Errorf("%+v %s = %d,%v err %v, oracle %d,%v", tc, op.name, got, ok, err, want, wok)
			}
			if s.ShardsScanned != tc.live || s.Aggregates != 1 || s.RadixRounds != flatRounds || flatRounds == 0 {
				t.Errorf("%+v %s: %d shard visits, %d aggregates, %d rounds; want %d visits, 1 aggregate, the flat table's %d rounds",
					tc, op.name, s.ShardsScanned, s.Aggregates, s.RadixRounds, tc.live, flatRounds)
			}
			// A nil ctx is the background context, and a CollectStats
			// collector records the descent.
			v, rec = optq()
			got, ok, err = op.run(nil, v)
			if s := rec.Snapshot(); err != nil || ok != wok || got != want || s.Aggregates != 1 || s.RadixRounds != flatRounds {
				t.Errorf("%+v %s with nil ctx and CollectStats = %d,%v err %v (%d aggregates, %d rounds), oracle %d,%v (1 aggregate, %d rounds)",
					tc, op.name, got, ok, err, s.Aggregates, s.RadixRounds, want, wok, flatRounds)
			}
		}
	}

	// Shards of 300 and 77 rows, whose windows straddle shard boundaries:
	// MEDIAN, QUANTILE and the grouped MEDIAN against the oracle.
	for _, shardRows := range []int{300, 77} {
		st := ShardTable(flat, shardRows)
		_, sel = where(700, 3000)
		nq := func() *ShardedQuery { return st.Query().Where("a", GreaterEq(700)).Where("a", LessEq(3000)) }
		got, ok, err := nq().MedianContext(ctx, "b")
		if want, wok := ob.Median(sel); err != nil || ok != wok || got != want {
			t.Errorf("shards of %d: MEDIAN = %d,%v err %v, oracle %d,%v", shardRows, got, ok, err, want, wok)
		}
		got, ok, err = nq().QuantileContext(ctx, "b", 0.9)
		if want, wok := ob.Quantile(sel, 0.9); err != nil || ok != wok || got != want {
			t.Errorf("shards of %d: QUANTILE = %d,%v err %v, oracle %d,%v", shardRows, got, ok, err, want, wok)
		}
		g, err := nq().GroupByContext(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		meds, err := g.MedianContext(ctx, "b")
		if err != nil {
			t.Fatal(err)
		}
		keys, groups := oracle.New(vals["g"]).GroupBy(sel)
		for i := range keys {
			if want, _ := ob.Median(groups[i]); meds[i] != want {
				t.Errorf("shards of %d: group %d MEDIAN = %d, oracle %d", shardRows, keys[i], meds[i], want)
			}
		}
	}
}
