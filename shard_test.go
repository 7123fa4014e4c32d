package bpagg

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// Sharded-store behavioral tests: append atomicity (the torn-table
// regression pins), shard rollover, catalog pruning (metric-asserted),
// serialization round-trips with seed-file compatibility, and
// thread-count determinism. Bit-identity against the flat engine across
// the full route/layout matrix is the oracle sweep's sharded half
// (TestShardedOracleSweep in oracle_diff_test.go).

// mustPanic runs fn and reports the recovered panic value; it fails the
// test if fn returns normally.
func mustPanic(t *testing.T, fn func()) (recovered any) {
	t.Helper()
	defer func() { recovered = recover() }()
	fn()
	t.Fatalf("expected panic, got none")
	return nil
}

func TestAppendColumnarZeroColumnRejected(t *testing.T) {
	tab := NewTable()
	mustPanic(t, func() { tab.AppendColumnar(map[string][]uint64{}) })
	if tab.Rows() != 0 {
		// The old bug: n stayed -1 and t.rows += n silently decremented.
		t.Fatalf("zero-column AppendColumnar changed Rows() to %d", tab.Rows())
	}
	mustPanic(t, func() { tab.AppendRow(map[string]uint64{}) })
	if tab.Rows() != 0 {
		t.Fatalf("zero-column AppendRow changed Rows() to %d", tab.Rows())
	}

	st := NewShardedTable(64)
	mustPanic(t, func() { st.AppendColumnar(map[string][]uint64{}) })
	mustPanic(t, func() { st.AppendRow(map[string]uint64{}) })
	if st.Rows() != 0 || st.NumShards() != 0 {
		t.Fatalf("zero-column sharded append mutated the store: rows=%d shards=%d", st.Rows(), st.NumShards())
	}
}

// tableState captures Rows() and every column length for the atomicity
// pins.
func tableState(tab *Table) (int, []int) {
	lens := make([]int, 0, len(tab.names))
	for _, name := range tab.names {
		lens = append(lens, tab.Column(name).Len())
	}
	return tab.Rows(), lens
}

func TestAppendRowAtomicOnBadValue(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		tab := NewTable()
		tab.AddColumn("a", layout, 8)
		tab.AddColumn("b", layout, 4)
		tab.AppendRow(map[string]uint64{"a": 200, "b": 15})

		rows, lens := tableState(tab)
		// "a" fits, "b" does not: the old code appended "a" before
		// panicking on "b", tearing the table.
		mustPanic(t, func() { tab.AppendRow(map[string]uint64{"a": 1, "b": 16}) })
		if r, l := tableState(tab); r != rows || l[0] != lens[0] || l[1] != lens[1] {
			t.Fatalf("%v: failed AppendRow tore the table: rows %d→%d, lens %v→%v", layout, rows, r, lens, l)
		}
		mustPanic(t, func() { tab.AppendRow(map[string]uint64{"a": 1, "zz": 2}) })
		if r, l := tableState(tab); r != rows || l[0] != lens[0] || l[1] != lens[1] {
			t.Fatalf("%v: missing-column AppendRow tore the table", layout)
		}
	}
}

func TestAppendColumnarAtomicOnBadValue(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		tab := NewTable()
		tab.AddColumn("a", layout, 8)
		tab.AddColumn("b", layout, 4)
		tab.AppendColumnar(map[string][]uint64{"a": {1, 2}, "b": {3, 4}})

		rows, lens := tableState(tab)
		// The width violation sits mid-slice in the second column: the old
		// code appended all of "a" and part of nothing before panicking
		// inside the layout, leaving unequal lengths.
		mustPanic(t, func() {
			tab.AppendColumnar(map[string][]uint64{"a": {5, 6, 7}, "b": {1, 16, 2}})
		})
		if r, l := tableState(tab); r != rows || l[0] != lens[0] || l[1] != lens[1] {
			t.Fatalf("%v: failed AppendColumnar tore the table: rows %d→%d, lens %v→%v", layout, rows, r, lens, l)
		}
		mustPanic(t, func() {
			tab.AppendColumnar(map[string][]uint64{"a": {5}, "b": {1, 2}})
		})
		if r, l := tableState(tab); r != rows || l[0] != lens[0] || l[1] != lens[1] {
			t.Fatalf("%v: ragged AppendColumnar tore the table", layout)
		}
	}
}

func TestShardedAppendAtomic(t *testing.T) {
	st := NewShardedTable(4)
	st.AddColumn("a", VBP, 8)
	st.AddColumn("b", HBP, 4)
	st.AppendColumnar(map[string][]uint64{"a": {1, 2, 3, 4, 5}, "b": {1, 2, 3, 0, 1}})
	rows, shards := st.Rows(), st.NumShards()

	mustPanic(t, func() { st.AppendRow(map[string]uint64{"a": 1, "b": 16}) })
	mustPanic(t, func() { st.AppendColumnar(map[string][]uint64{"a": {1, 300}, "b": {0, 0}}) })
	mustPanic(t, func() { st.AppendColumnar(map[string][]uint64{"a": {1}, "b": {0, 0}}) })
	if st.Rows() != rows || st.NumShards() != shards {
		t.Fatalf("failed sharded append mutated the store: rows %d→%d, shards %d→%d",
			rows, st.Rows(), shards, st.NumShards())
	}
	for s, sh := range st.shards {
		if _, lens := tableState(sh); lens[0] != lens[1] {
			t.Fatalf("shard %d torn: column lengths %v", s, lens)
		}
	}
}

func TestShardRollover(t *testing.T) {
	st := NewShardedTable(4)
	st.AddColumn("v", VBP, 8)
	for i := 0; i < 10; i++ {
		st.AppendRow(map[string]uint64{"v": uint64(i)})
	}
	if st.NumShards() != 3 || st.Rows() != 10 {
		t.Fatalf("10 rows at shard size 4: got %d shards, %d rows", st.NumShards(), st.Rows())
	}
	for s, want := range []int{4, 4, 2} {
		if st.shards[s].Rows() != want {
			t.Fatalf("shard %d has %d rows, want %d", s, st.shards[s].Rows(), want)
		}
	}
	// Columnar load tops up the tail (2 more fit) then rolls two fresh
	// shards, one of them a partial tail.
	vals := make([]uint64, 7)
	for i := range vals {
		vals[i] = uint64(100 + i)
	}
	st.AppendColumnar(map[string][]uint64{"v": vals})
	if st.NumShards() != 5 || st.Rows() != 17 {
		t.Fatalf("after top-up load: got %d shards, %d rows", st.NumShards(), st.Rows())
	}
	if got := st.Query().CountRows(); got != 17 {
		t.Fatalf("CountRows = %d, want 17", got)
	}
	if sum, want := st.Query().Sum("v"), uint64(0+1+2+3+4+5+6+7+8+9+100+101+102+103+104+105+106); sum != want {
		t.Fatalf("Sum = %d, want %d", sum, want)
	}
}

// buildDisjointShards fills each shard with values from its own disjoint
// range: shard s holds shardRows values in [s*gap, s*gap+spread].
func buildDisjointShards(layout Layout, shards, shardRows int) *ShardedTable {
	st := NewShardedTable(shardRows)
	st.AddColumn("v", layout, 16)
	rng := rand.New(rand.NewSource(7))
	const gap, spread = 1000, 99
	for s := 0; s < shards; s++ {
		vals := make([]uint64, shardRows)
		for i := range vals {
			vals[i] = uint64(s*gap) + uint64(rng.Intn(spread+1))
		}
		st.AppendColumnar(map[string][]uint64{"v": vals})
	}
	return st
}

func TestShardPruningMetrics(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		const shards = 6
		st := buildDisjointShards(layout, shards, 256)

		// A predicate inside shard 2's range only: every other shard must
		// prune at the catalog.
		q := st.Query().WithStats().Where("v", Between(2000, 2099))
		wantSum := uint64(0)
		for s := range st.shards {
			sel := st.shards[s].Query().Where("v", Between(2000, 2099))
			wantSum += sel.Sum("v")
		}
		if got := q.Sum("v"); got != wantSum {
			t.Fatalf("%v: pruned Sum = %d, want %d", layout, got, wantSum)
		}
		stats := q.Stats()
		if stats.ShardsScanned != 1 || stats.ShardsPruned != shards-1 {
			t.Fatalf("%v: shard counters = (scanned %d, pruned %d), want (1, %d)",
				layout, stats.ShardsScanned, stats.ShardsPruned, shards-1)
		}

		// A predicate outside every shard's bounds must scan zero shards
		// and touch zero words — pruning is proven by the cost counters,
		// not just the result.
		q2 := st.Query().WithStats().Where("v", Between(500, 999))
		if got := q2.Sum("v"); got != 0 {
			t.Fatalf("%v: out-of-bounds Sum = %d, want 0", layout, got)
		}
		s2 := q2.Stats()
		if s2.ShardsScanned != 0 || s2.ShardsPruned != shards {
			t.Fatalf("%v: out-of-bounds shard counters = (scanned %d, pruned %d), want (0, %d)",
				layout, s2.ShardsScanned, s2.ShardsPruned, shards)
		}
		if s2.WordsCompared != 0 || s2.WordsTouched != 0 || s2.SegmentsScanned != 0 {
			t.Fatalf("%v: catalog-pruned query still touched data: %+v", layout, s2)
		}
	}
}

func TestShardedIORoundTrip(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		st := buildDisjointShards(layout, 3, 100) // non-divisible tail vs segment size
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatalf("%v: WriteTo: %v", layout, err)
		}
		for _, loader := range []string{"ReadShardedTable", "ReadPartitioned"} {
			var got *ShardedTable
			var err error
			if loader == "ReadShardedTable" {
				got, err = ReadShardedTable(bytes.NewReader(buf.Bytes()))
			} else {
				got, err = ReadPartitioned(bytes.NewReader(buf.Bytes()))
			}
			if err != nil {
				t.Fatalf("%v: %s: %v", layout, loader, err)
			}
			if got.Rows() != st.Rows() || got.NumShards() != st.NumShards() || got.ShardRows() != st.ShardRows() {
				t.Fatalf("%v: %s shape mismatch: rows %d/%d shards %d/%d size %d/%d", layout, loader,
					got.Rows(), st.Rows(), got.NumShards(), st.NumShards(), got.ShardRows(), st.ShardRows())
			}
			a, b := st.Query().Sum("v"), got.Query().Sum("v")
			if a != b {
				t.Fatalf("%v: %s Sum diverged: %d vs %d", layout, loader, a, b)
			}
			m1, ok1 := st.Query().Where("v", Greater(1000)).Median("v")
			m2, ok2 := got.Query().Where("v", Greater(1000)).Median("v")
			if m1 != m2 || ok1 != ok2 {
				t.Fatalf("%v: %s Median diverged: (%d,%v) vs (%d,%v)", layout, loader, m1, ok1, m2, ok2)
			}
		}
	}
}

func TestReadPartitionedSeedFlatFile(t *testing.T) {
	// Seed-era flat .bpag files must keep loading: a flat table stream is
	// adopted as a single-shard store with identical query results.
	tab := NewTable()
	tab.AddColumn("v", VBP, 12)
	vals := make([]uint64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = uint64(rng.Intn(4000))
	}
	tab.AppendColumnar(map[string][]uint64{"v": vals})
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadPartitioned(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadPartitioned(flat): %v", err)
	}
	if st.NumShards() != 1 || st.Rows() != 500 {
		t.Fatalf("flat adoption: %d shards, %d rows", st.NumShards(), st.Rows())
	}
	if a, b := tab.Query().Where("v", Less(2000)).Sum("v"), st.Query().Where("v", Less(2000)).Sum("v"); a != b {
		t.Fatalf("flat vs adopted Sum: %d vs %d", a, b)
	}
}

func TestShardedIOCorrupt(t *testing.T) {
	st := buildDisjointShards(VBP, 2, 64)
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{3, 10, len(good) / 2, len(good) - 4} {
			if _, err := ReadShardedTable(bytes.NewReader(good[:cut])); err == nil {
				t.Fatalf("truncation at %d loaded without error", cut)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := ReadShardedTable(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic loaded without error")
		}
		if _, err := ReadPartitioned(bytes.NewReader(bad)); err == nil {
			t.Fatal("ReadPartitioned accepted unknown magic")
		}
	})
	t.Run("catalog-tampered", func(t *testing.T) {
		// The catalog is the file's trailer; flipping a bound must be
		// caught by the recompute-and-compare check.
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x40
		if _, err := ReadShardedTable(bytes.NewReader(bad)); err == nil {
			t.Fatal("tampered shard catalog loaded without error")
		}
	})
}

func TestShardedDeterminismAcrossThreads(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		st := buildDisjointShards(layout, 7, 100)
		type result struct {
			cnt    uint64
			sum    uint64
			min    uint64
			med    uint64
			keys   []uint64
			gsums  []uint64
			gcnt   []uint64
			stats  ExecStats
			statsT ExecStats
		}
		run := func(threads int) result {
			q := st.Query().WithStats().Where("v", GreaterEq(2000)).With(Parallel(threads))
			r := result{cnt: q.CountRows(), sum: q.Sum("v")}
			r.min, _ = q.Min("v")
			r.med, _ = q.Median("v")
			g := st.Query().With(Parallel(threads)).GroupBy("v")
			r.keys, r.gsums, r.gcnt = g.Keys(), g.Sum("v"), g.Count()
			r.stats = q.Stats()
			return r
		}
		base := run(1)
		for _, threads := range []int{2, 8} {
			got := run(threads)
			if got.cnt != base.cnt || got.sum != base.sum || got.min != base.min || got.med != base.med {
				t.Fatalf("%v: threads=%d scalar results diverged", layout, threads)
			}
			if len(got.keys) != len(base.keys) {
				t.Fatalf("%v: threads=%d group count diverged", layout, threads)
			}
			for i := range base.keys {
				if got.keys[i] != base.keys[i] || got.gsums[i] != base.gsums[i] || got.gcnt[i] != base.gcnt[i] {
					t.Fatalf("%v: threads=%d group %d diverged", layout, threads, i)
				}
			}
			// The analytic counters (shards, words) are thread-independent.
			if got.stats.ShardsScanned != base.stats.ShardsScanned ||
				got.stats.ShardsPruned != base.stats.ShardsPruned ||
				got.stats.WordsCompared != base.stats.WordsCompared ||
				got.stats.WordsTouched != base.stats.WordsTouched {
				t.Fatalf("%v: threads=%d analytic counters diverged:\n1: %+v\n%d: %+v",
					layout, threads, base.stats, threads, got.stats)
			}
		}
	}
}

func TestShardTableSplitsAndPreservesNulls(t *testing.T) {
	cols := []*Column{NewColumn(VBP, 8), NewColumn(VBP, 10)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		cols[0].Append(uint64(rng.Intn(200)))
		if rng.Intn(5) == 0 {
			cols[1].AppendNull()
		} else {
			cols[1].Append(uint64(rng.Intn(1000)))
		}
	}
	tab := NewTableFromColumns([]string{"g", "v"}, cols)
	st := ShardTable(tab, 77) // non-divisible tail
	if st.NumShards() != 4 || st.Rows() != 300 {
		t.Fatalf("split shape: %d shards, %d rows", st.NumShards(), st.Rows())
	}
	fa, fok := tab.Query().Where("g", Less(100)).Avg("v")
	sa, sok := st.Query().Where("g", Less(100)).Avg("v")
	if fa != sa || fok != sok {
		t.Fatalf("flat vs split Avg: (%v,%v) vs (%v,%v)", fa, fok, sa, sok)
	}
	flatCnt, err := tab.Query().CountContext(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	if b := st.Query().Count("v"); flatCnt != b {
		t.Fatalf("flat vs split non-NULL Count: %d vs %d", flatCnt, b)
	}
}
