package bpagg

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
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

// partsState renders every part's row count and catalog bounds.
func partsState(st *ShardedTable) string {
	var b strings.Builder
	for s, sh := range st.shards {
		fmt.Fprintf(&b, "%d:%d%v ", s, sh.Rows(), partBounds(st, s))
	}
	return b.String()
}

// partBounds returns part s's catalog bounds, one cell per column.
func partBounds(st *ShardedTable, s int) []shardBounds { return st.shards[s].bounds }

// TestShardedAppendAtomic: a rejected load changes nothing on a sharded
// store or on a table's one-part store — not the row count, the part
// count, any part's rows or catalog bounds — and tears no part.
func TestShardedAppendAtomic(t *testing.T) {
	flat := NewTable()
	flat.AddColumn("a", VBP, 8)
	flat.AddColumn("b", HBP, 4)
	sharded := NewShardedTable(4)
	sharded.AddColumn("a", VBP, 8)
	sharded.AddColumn("b", HBP, 4)
	for _, st := range []*ShardedTable{sharded, PartitionTable(flat)} {
		st.AppendColumnar(map[string][]uint64{"a": {1, 2, 3, 4, 5}, "b": {1, 2, 3, 0, 1}})
		rows, shards, parts := st.Rows(), st.NumShards(), partsState(st)

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
		if got := partsState(st); got != parts {
			t.Fatalf("failed append changed the parts (rows and bounds):\nbefore %s\nafter  %s", parts, got)
		}
	}
}

// TestShardedConcurrentAppends: appends racing on one store are
// serialised — four writers mixing AppendRow and AppendColumnar loads that
// straddle part boundaries, on a sharded store and on a table's one-part
// store (half of its writers' loads through the table) — so no row, sum or
// catalog bound is lost. Run it under -race too.
func TestShardedConcurrentAppends(t *testing.T) {
	const writers, loads, load = 4, 25, 5
	flat := NewTable()
	flat.AddColumn("a", VBP, 8)
	flat.AddColumn("b", HBP, 5)
	sharded := NewShardedTable(7)
	sharded.AddColumn("a", VBP, 8)
	sharded.AddColumn("b", HBP, 5)
	for _, tc := range []struct {
		name   string
		st     *ShardedTable
		shards int
	}{{"sharded", sharded, 44}, {"one-part", PartitionTable(flat), 1}} {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				appendRow, appendColumnar := tc.st.AppendRow, tc.st.AppendColumnar
				if tc.name == "one-part" && w%2 == 1 {
					appendRow, appendColumnar = flat.AppendRow, flat.AppendColumnar
				}
				for i := 0; i < loads; i++ {
					a, b := uint64(w*loads+i), uint64(i%32)
					if i%2 == 1 {
						appendRow(map[string]uint64{"a": a, "b": b})
						continue
					}
					as, bs := make([]uint64, load), make([]uint64, load)
					for r := range as {
						as[r], bs[r] = a, (b+uint64(r))%32
					}
					appendColumnar(map[string][]uint64{"a": as, "b": bs})
				}
			}(w)
		}
		wg.Wait()

		// Per writer: 13 loads of 5 rows and 12 single rows.
		const rows = writers * (13*load + 12)
		var sumA, sumB uint64
		for w := 0; w < writers; w++ {
			for i := 0; i < loads; i++ {
				if i%2 == 1 {
					sumA, sumB = sumA+uint64(w*loads+i), sumB+uint64(i%32)
					continue
				}
				for r := 0; r < load; r++ {
					sumA, sumB = sumA+uint64(w*loads+i), sumB+uint64(i%32+r)%32
				}
			}
		}
		st := tc.st
		if st.Rows() != rows || st.NumShards() != tc.shards {
			t.Fatalf("%s: %d rows in %d parts, want %d in %d", tc.name, st.Rows(), st.NumShards(), rows, tc.shards)
		}
		if a, b := st.Query().Sum("a"), st.Query().Sum("b"); a != sumA || b != sumB {
			t.Fatalf("%s: SUM(a), SUM(b) = %d, %d, want %d, %d", tc.name, a, b, sumA, sumB)
		}
		for s, sh := range st.shards {
			if want := min(st.ShardRows(), rows-s*st.ShardRows()); sh.Rows() != want {
				t.Fatalf("%s: part %d has %d rows, want %d", tc.name, s, sh.Rows(), want)
			}
			for j, name := range st.Columns() {
				c, want := sh.Column(name), shardBounds{min: ^uint64(0)}
				if c.Len() != sh.Rows() {
					t.Fatalf("%s: part %d column %q has %d values for %d rows", tc.name, s, name, c.Len(), sh.Rows())
				}
				for i := 0; i < c.Len(); i++ {
					want = shardBounds{min: min(want.min, c.Value(i)), max: max(want.max, c.Value(i)), any: true}
				}
				if got := partBounds(st, s)[j]; got != want {
					t.Fatalf("%s: part %d column %q bounds %+v, its values span %+v", tc.name, s, name, got, want)
				}
			}
		}
	}
}

// TestWriteRoutesAgree: every write route builds the same store, byte for
// byte — AppendRow one row at a time, AppendColumnar in ragged loads that
// straddle shard boundaries, and ShardTable of a flat table — and a flat
// table loaded either way writes the same one-part store.
func TestWriteRoutesAgree(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(46))
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(rng.Intn(1<<9)), uint64(rng.Intn(1<<13))
	}
	row := func(i int) map[string]uint64 { return map[string]uint64{"a": a[i], "b": b[i]} }
	ragged := func(load func(map[string][]uint64)) {
		for lo, i := 0, 0; lo < n; i++ {
			hi := min(lo+[]int{1, 50, 77, 130, 3, 96}[i%6], n)
			load(map[string][]uint64{"a": a[lo:hi], "b": b[lo:hi]})
			lo = hi
		}
	}
	bytesOf := func(st *ShardedTable) string {
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, layout := range []Layout{VBP, HBP} {
		sharded := func() *ShardedTable {
			st := NewShardedTable(77)
			st.AddColumn("a", layout, 9)
			st.AddColumn("b", layout, 13)
			return st
		}
		flat := func() *Table {
			tbl := NewTable()
			tbl.AddColumn("a", layout, 9)
			tbl.AddColumn("b", layout, 13)
			return tbl
		}
		byRow, byLoad, rowFlat, loadFlat := sharded(), sharded(), flat(), flat()
		for i := 0; i < n; i++ {
			byRow.AppendRow(row(i))
			rowFlat.AppendRow(row(i))
		}
		ragged(byLoad.AppendColumnar)
		ragged(loadFlat.AppendColumnar)

		want := bytesOf(byRow)
		if byRow.NumShards() != 7 {
			t.Fatalf("%v: %d shards, want 7", layout, byRow.NumShards())
		}
		for route, st := range map[string]*ShardedTable{"AppendColumnar": byLoad, "ShardTable": ShardTable(rowFlat, 77)} {
			if got := bytesOf(st); got != want {
				t.Errorf("%v: %s writes %d bytes that differ from AppendRow's %d", layout, route, len(got), len(want))
			}
		}
		if got, want := bytesOf(PartitionTable(loadFlat)), bytesOf(PartitionTable(rowFlat)); got != want {
			t.Errorf("%v: a flat table loaded by AppendColumnar writes %d bytes that differ from AppendRow's %d", layout, len(got), len(want))
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
	if got := must(st.Query().CountRowsContext(bg)); got != 17 {
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
			m1, ok1 := must2(st.Query().Where("v", Greater(1000)).MedianContext(bg, "v"))
			m2, ok2 := must2(got.Query().Where("v", Greater(1000)).MedianContext(bg, "v"))
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
			r := result{cnt: must(q.CountRowsContext(bg)), sum: q.Sum("v")}
			r.min, _ = must2(q.MinContext(bg, "v"))
			r.med, _ = must2(q.MedianContext(bg, "v"))
			g := must(st.Query().With(Parallel(threads)).GroupByContext(bg, "v"))
			r.keys, r.gsums, r.gcnt = g.Keys(), must(g.SumContext(bg, "v")), must(g.CountContext(bg))
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
	fa, fok := must2(tab.Query().Where("g", Less(100)).AvgContext(bg, "v"))
	sa, sok := must2(st.Query().Where("g", Less(100)).AvgContext(bg, "v"))
	if fa != sa || fok != sok {
		t.Fatalf("flat vs split Avg: (%v,%v) vs (%v,%v)", fa, fok, sa, sok)
	}
	flatCnt, err := tab.Query().CountContext(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	if b := must(st.Query().CountContext(bg, "v")); flatCnt != b {
		t.Fatalf("flat vs split non-NULL Count: %d vs %d", flatCnt, b)
	}
}

// TestTableStoreFollowsTable: a table's one-part store is the table's —
// a column added to either after the store was built is on both, appends
// to either land in the table — and it writes as the store it is: an
// empty table's as an empty store, not as one empty part the reader
// would reject, and a grown table's as one part holding every row.
func TestTableStoreFollowsTable(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("v", VBP, 8)
	st := PartitionTable(tbl)
	tbl.AddColumn("w", HBP, 4)
	st.AddColumn("x", VBP, 3)
	if got := st.Columns(); !slices.Equal(got, []string{"v", "w", "x"}) || tbl.Column("x") == nil {
		t.Fatalf("store columns %v, table has x: %v", got, tbl.Column("x") != nil)
	}
	for _, want := range []uint64{0, 6} {
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadShardedTable(&buf)
		if err != nil {
			t.Fatalf("%d rows: %v", tbl.Rows(), err)
		}
		if back.Rows() != tbl.Rows() || back.Query().Sum("v") != want {
			t.Errorf("%d rows: read back %d rows summing to %d, want %d", tbl.Rows(), back.Rows(), back.Query().Sum("v"), want)
		}
		st.AppendColumnar(map[string][]uint64{"v": {1, 2, 3}, "w": {4, 5, 6}, "x": {7, 0, 7}})
	}
	if tbl.Rows() != 6 || st.Rows() != 6 || tbl.Query().Where("x", Equal(7)).Sum("w") != 20 {
		t.Errorf("after two appends through the store: table %d rows, store %d, SUM(w) WHERE x = 7 is %d, want 6, 6, 20",
			tbl.Rows(), st.Rows(), tbl.Query().Where("x", Equal(7)).Sum("w"))
	}
}
