package bpagg

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestGroupByAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n = 4000
	region := make([]uint64, n)
	amount := make([]uint64, n)
	for i := 0; i < n; i++ {
		region[i] = uint64(rng.Intn(7))
		amount[i] = uint64(rng.Intn(10000))
	}
	tbl := NewTable()
	tbl.AddColumn("region", VBP, 3)
	tbl.AddColumn("amount", HBP, 14)
	tbl.AppendColumnar(map[string][]uint64{"region": region, "amount": amount})

	// Reference: map-based group-by with a filter amount < 5000.
	type agg struct {
		count, sum, min, max uint64
		vals                 []uint64
	}
	ref := map[uint64]*agg{}
	for i := 0; i < n; i++ {
		if amount[i] >= 5000 {
			continue
		}
		a := ref[region[i]]
		if a == nil {
			a = &agg{min: ^uint64(0)}
			ref[region[i]] = a
		}
		a.count++
		a.sum += amount[i]
		if amount[i] < a.min {
			a.min = amount[i]
		}
		if amount[i] > a.max {
			a.max = amount[i]
		}
		a.vals = append(a.vals, amount[i])
	}

	g := tbl.Query().Where("amount", Less(5000)).GroupBy("region")
	keys := g.Keys()
	if len(keys) != len(ref) {
		t.Fatalf("got %d groups, want %d", len(keys), len(ref))
	}
	// Keys must be ascending.
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not ascending: %v", keys)
		}
	}
	counts := g.Count()
	sums := g.Sum("amount")
	mins := g.Min("amount")
	maxs := g.Max("amount")
	meds := g.Median("amount")
	avgs := g.Avg("amount")
	for i, key := range keys {
		want := ref[key]
		if want == nil {
			t.Fatalf("unexpected group %d", key)
		}
		if counts[i] != want.count || sums[i] != want.sum ||
			mins[i] != want.min || maxs[i] != want.max {
			t.Fatalf("group %d: got (c=%d s=%d mn=%d mx=%d), want (c=%d s=%d mn=%d mx=%d)",
				key, counts[i], sums[i], mins[i], maxs[i],
				want.count, want.sum, want.min, want.max)
		}
		sort.Slice(want.vals, func(a, b int) bool { return want.vals[a] < want.vals[b] })
		if wantMed := want.vals[(len(want.vals)+1)/2-1]; meds[i] != wantMed {
			t.Fatalf("group %d median: got %d want %d", key, meds[i], wantMed)
		}
		if wantAvg := float64(want.sum) / float64(want.count); avgs[i] != wantAvg {
			t.Fatalf("group %d avg: got %v want %v", key, avgs[i], wantAvg)
		}
	}
}

func TestGroupByEmptySelection(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("g", VBP, 4)
	tbl.AddColumn("v", VBP, 8)
	tbl.AppendColumnar(map[string][]uint64{"g": {1, 2, 3}, "v": {10, 20, 30}})
	g := tbl.Query().Where("v", Greater(100)).GroupBy("g")
	if g.Len() != 0 {
		t.Fatalf("empty selection produced %d groups", g.Len())
	}
	if len(g.Sum("v")) != 0 || len(g.Keys()) != 0 {
		t.Fatal("aggregates over zero groups should be empty")
	}
}

func TestGroupBySingleGroup(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("g", HBP, 4)
	tbl.AddColumn("v", VBP, 8)
	tbl.AppendColumnar(map[string][]uint64{"g": {5, 5, 5}, "v": {1, 2, 3}})
	g := tbl.Query().GroupBy("g")
	if g.Len() != 1 || g.Keys()[0] != 5 {
		t.Fatalf("groups = %v", g.Keys())
	}
	if got := g.Sum("v")[0]; got != 6 {
		t.Fatalf("Sum = %d", got)
	}
	if got := g.Count()[0]; got != 3 {
		t.Fatalf("Count = %d", got)
	}
	if sel := g.Selection(0); sel.Count() != 3 {
		t.Fatalf("Selection count = %d", sel.Count())
	}
}

func TestGroupByUnknownColumnPanics(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("g", VBP, 4)
	tbl.AppendColumnar(map[string][]uint64{"g": {1}})
	defer func() {
		if recover() == nil {
			t.Fatal("GroupBy on unknown column did not panic")
		}
	}()
	tbl.Query().GroupBy("nope")
}

// groupStatsTable builds a small table with a known number of distinct
// group keys for the metrics-asserted invariant tests.
func groupStatsTable(t *testing.T) (*Table, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(103))
	const n, groups = 2000, 7
	key := make([]uint64, n)
	val := make([]uint64, n)
	for i := range key {
		key[i] = uint64(i % groups) // every key present
		val[i] = uint64(rng.Intn(1 << 10))
	}
	tbl := NewTable()
	tbl.AddColumn("key", VBP, 3)
	tbl.AddColumn("val", HBP, 10)
	tbl.AppendColumnar(map[string][]uint64{"key": key, "val": val})
	return tbl, groups
}

// onePassTable builds the inputs of TestGroupByMaterializedSelectionOnePass:
// "key" (i mod 7), "val", "pos" (the row number, so a row range has a
// predicate twin), and the NULL-key pair — "nkey" is NULL on every fifth
// row; "zkey" stores the same codes (0 on those rows) without NULLs and
// "live" is 0 exactly there, so Where(live = 1).GroupBy(zkey) is nkey's
// partition over the same rows.
func onePassTable(t *testing.T) *Table {
	t.Helper()
	const n = 2000
	rng := rand.New(rand.NewSource(104))
	key, val, pos := NewColumn(VBP, 3), NewColumn(HBP, 10), NewColumn(VBP, 11)
	nkey, zkey, live := NewColumn(VBP, 3), NewColumn(VBP, 3), NewColumn(VBP, 1)
	for i := 0; i < n; i++ {
		key.Append(uint64(i % 7))
		val.Append(uint64(rng.Intn(1 << 10)))
		pos.Append(uint64(i))
		if i%5 == 0 {
			nkey.AppendNull()
			zkey.Append(0)
			live.Append(0)
		} else {
			nkey.Append(uint64(i % 7))
			zkey.Append(uint64(i % 7))
			live.Append(1)
		}
	}
	return NewTableFromColumns(
		[]string{"key", "val", "pos", "nkey", "zkey", "live"},
		[]*Column{key, val, pos, nkey, zkey, live})
}

// TestGroupByMaterializedSelectionOnePass pins that how the selection was
// built never changes the partition's cost: over a materialized
// selection, a caller-edited bitmap, a row range and a NULL-bearing
// grouping column, GROUP BY is one recorded scan with the same
// WordsCompared, GroupBankWords and GroupsDiscovered — and the same keys
// and counts — as the lazy query over the same rows.
func TestGroupByMaterializedSelectionOnePass(t *testing.T) {
	tbl := onePassTable(t)
	// partition runs group() and returns what it alone recorded into q's
	// collector — the filter scans a lazy query still owes are paid first.
	partition := func(q *Query, group func() *Grouped) (ExecStats, *Grouped) {
		q.Selection()
		before := q.Stats()
		g := group()
		return q.Stats().Sub(before), g
	}
	for _, tc := range []struct {
		name  string
		lazy  func() *Query // the same rows selected by predicates alone
		by    string        // lazy's grouping column
		input func() (*Query, func() *Grouped)
	}{
		{"materialized selection",
			func() *Query { return tbl.Query().Where("val", Less(500)) }, "key",
			func() (*Query, func() *Grouped) {
				q := tbl.Query().Where("val", Less(500))
				q.Selection()
				return q, func() *Grouped { return q.GroupBy("key") }
			}},
		{"caller-edited bitmap",
			func() *Query { return tbl.Query().Where("val", Less(500)) }, "key",
			func() (*Query, func() *Grouped) {
				q := tbl.Query()
				q.Selection().And(tbl.Column("val").Scan(Less(500)))
				return q, func() *Grouped { return q.GroupBy("key") }
			}},
		{"row range",
			func() *Query { return tbl.Query().Where("pos", Between(130, 1499)) }, "key",
			func() (*Query, func() *Grouped) {
				q := tbl.Query()
				return q, func() *Grouped { return q.Range(130, 1500).GroupBy("key") }
			}},
		{"NULL grouping keys",
			func() *Query { return tbl.Query().Where("live", Equal(1)) }, "zkey",
			func() (*Query, func() *Grouped) {
				q := tbl.Query()
				return q, func() *Grouped { return q.GroupBy("nkey") }
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lq := tc.lazy().WithStats()
			want, wantG := partition(lq, func() *Grouped { return lq.GroupBy(tc.by) })
			q, group := tc.input()
			got, g := partition(q.WithStats(), group)

			if got.Scans != 1 {
				t.Errorf("partition Scans = %d, want 1", got.Scans)
			}
			if got.WordsCompared != want.WordsCompared || got.GroupBankWords != want.GroupBankWords ||
				got.GroupsDiscovered != want.GroupsDiscovered {
				t.Errorf("WordsCompared/GroupBankWords/GroupsDiscovered = %d/%d/%d, lazy query over the same rows %d/%d/%d",
					got.WordsCompared, got.GroupBankWords, got.GroupsDiscovered,
					want.WordsCompared, want.GroupBankWords, want.GroupsDiscovered)
			}
			if g.Strategy() != GroupDirect {
				t.Errorf("strategy = %v, want %v", g.Strategy(), GroupDirect)
			}
			if !reflect.DeepEqual(g.Keys(), wantG.Keys()) || !reflect.DeepEqual(g.Count(), wantG.Count()) {
				t.Errorf("keys %v counts %v, lazy query %v %v", g.Keys(), g.Count(), wantG.Keys(), wantG.Count())
			}
		})
	}
}

// TestStrategyIsKeyWidth pins that the GROUP BY key index is a function of
// the grouping columns' packed width and of nothing else: not the store
// (flat, one shard, many), not how many shards survive the catalog (none
// here prunes every one), not whether rows exist at all, and not the
// selection's history (row range, materialized, NULL keys).
func TestStrategyIsKeyWidth(t *testing.T) {
	flat := onePassTable(t) // key/nkey: 3 bits, pos: 11 bits, val ≤ 1023
	stores := map[string]*ShardedTable{
		"one shard":    ShardTable(flat, flat.Rows()),
		"seven shards": ShardTable(flat, 300),
		"empty store": func() *ShardedTable {
			st := NewShardedTable(300)
			for _, name := range flat.Columns() {
				c := flat.Column(name)
				st.AddColumn(name, c.Layout(), c.BitWidth())
			}
			return st
		}(),
	}
	for _, tc := range []struct {
		name string
		cols []string
		want GroupStrategy
	}{
		{"narrow key", []string{"key"}, GroupDirect},
		{"NULL-bearing narrow key", []string{"nkey"}, GroupDirect},
		{"wide key", []string{"pos"}, GroupHash},
		{"composite of narrow keys", []string{"key", "live"}, GroupDirect},
		{"composite packing past the direct width", []string{"key", "val"}, GroupHash},
	} {
		check := func(input string, got GroupStrategy) {
			t.Helper()
			if got != tc.want {
				t.Errorf("%s / %s: Strategy() = %v, want %v", tc.name, input, got, tc.want)
			}
		}
		check("flat", flat.Query().GroupBy(tc.cols...).Strategy())
		check("flat, filtered", flat.Query().Where("val", Less(500)).GroupBy(tc.cols...).Strategy())
		check("flat, no row passes", flat.Query().Where("val", Greater(1023)).GroupBy(tc.cols...).Strategy())
		check("flat, ranged", flat.Query().Range(130, 1500).GroupBy(tc.cols...).Strategy())
		mq := flat.Query().Where("val", Less(500))
		mq.Selection()
		check("flat, materialized", mq.GroupBy(tc.cols...).Strategy())

		for name, st := range stores {
			check(name, st.Query().GroupBy(tc.cols...).Strategy())
			// val ≤ 1023, so the catalog prunes every shard.
			check(name+", fully pruned", st.Query().Where("val", Greater(1023)).GroupBy(tc.cols...).Strategy())
			check(name+", ranged", st.Query().Range(130, 1500).GroupBy(tc.cols...).Strategy())
			sq := st.Query().Where("val", Less(500))
			if err := sq.MaterializeContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			check(name+", materialized", sq.GroupBy(tc.cols...).Strategy())
		}
	}
}

// TestGroupedAggregatesVisibleInStats: grouped aggregates must flow into
// the query's stats collector like everything else the query runs. Over
// a materialized selection they are the same banked kernels as over a
// lazy one: one recorded aggregate per Sum call, one more for Avg (its
// sum; the NULL-free divisor is read off the partition).
func TestGroupedAggregatesVisibleInStats(t *testing.T) {
	tbl, _ := groupStatsTable(t)
	q := tbl.Query().WithStats()
	q.Selection()
	g := q.GroupBy("key")
	base := q.Stats()

	g.Sum("val")
	afterSum := q.Stats()
	if got := afterSum.Aggregates - base.Aggregates; got != 1 {
		t.Errorf("Grouped.Sum recorded %d aggregates, want 1 banked pass", got)
	}
	if afterSum.WordsTouched <= base.WordsTouched {
		t.Error("Grouped.Sum moved no WordsTouched")
	}

	g.Avg("val")
	if got := q.Stats().Aggregates - afterSum.Aggregates; got != 1 {
		t.Errorf("Grouped.Avg recorded %d aggregates, want 1 banked pass", got)
	}
}

// TestLazyClauseScanVisibleInStats: Where/WhereErr record clauses lazily,
// so the eventual scan is captured by the collector even when WithStats
// is attached after the clause.
func TestLazyClauseScanVisibleInStats(t *testing.T) {
	tbl, _ := groupStatsTable(t)
	q, err := tbl.Query().WhereErr("val", Less(500))
	if err != nil {
		t.Fatal(err)
	}
	q.WithStats()
	q.Selection()
	if s := q.Stats(); s.Scans != 1 {
		t.Errorf("Scans = %d, want the WhereErr clause's scan recorded", s.Scans)
	}

	q2 := tbl.Query().Where("val", Less(500)).WithStats()
	if got, err := q2.CountContext(context.Background(), "val"); err != nil || got != uint64(q.Selection().Count()) {
		t.Fatalf("CountContext = (%v, %v)", got, err)
	}
	if s := q2.Stats(); s.Scans != 1 {
		t.Errorf("fused CountContext Scans = %d, want 1", s.Scans)
	}
}

func TestGroupByWithExecOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const n = 3000
	g := make([]uint64, n)
	v := make([]uint64, n)
	for i := range g {
		g[i] = uint64(rng.Intn(4))
		v[i] = uint64(rng.Intn(1000))
	}
	tbl := NewTable()
	tbl.AddColumn("g", VBP, 2)
	tbl.AddColumn("v", VBP, 10)
	tbl.AppendColumnar(map[string][]uint64{"g": g, "v": v})
	base := tbl.Query().GroupBy("g").Sum("v")
	fast := tbl.Query().With(Parallel(4)).GroupBy("g").Sum("v")
	for i := range base {
		if base[i] != fast[i] {
			t.Fatalf("group %d: serial %d, parallel %d", i, base[i], fast[i])
		}
	}
}

// TestGroupedConcurrentAggregates: one Grouped answers aggregates from
// several goroutines at once. Counts are tallied by the partition pass,
// every banked pass reads the run list without writing it (MEDIAN narrows
// a copy of its own), and the one lazily built view, the key-major one
// behind Selection, is guarded — so COUNT racing AVG, MEDIAN or Selection
// is safe on every key width. Run under -race (make race).
func TestGroupedConcurrentAggregates(t *testing.T) {
	tbl := onePassTable(t) // key: 3 bits, live: 1 bit, pos: 11 bits, val: HBP measure
	for name, cols := range map[string][]string{
		"narrow key": {"key"}, "wide key": {"pos"}, "narrow composite": {"key", "live"},
	} {
		g := tbl.Query().Where("val", Less(900)).GroupBy(cols...)
		ref := tbl.Query().Where("val", Less(900)).GroupBy(cols...)
		wantCount, wantSum, wantAvg, wantMax, wantMed := ref.Count(), ref.Sum("val"), ref.Avg("val"), ref.Max("pos"), ref.Median("val")
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					var ok bool
					switch (w + i) % 4 {
					case 0:
						ok = reflect.DeepEqual(g.Count(), wantCount)
					case 1:
						ok = reflect.DeepEqual(g.Sum("val"), wantSum) && reflect.DeepEqual(g.Max("pos"), wantMax)
					case 2:
						ok = reflect.DeepEqual(g.Avg("val"), wantAvg) && reflect.DeepEqual(g.Median("val"), wantMed)
					default:
						gi := (w + i) % g.Len()
						ok = uint64(g.Selection(gi).Count()) == wantCount[gi]
					}
					if !ok {
						t.Errorf("%s: worker %d step %d disagrees with the serial answer", name, w, i)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
