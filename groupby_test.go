package bpagg

import (
	"context"
	"math/rand"
	"sort"
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

// TestGroupByOneScanPerGroup pins the legacy discovery cost: finding G
// groups takes exactly G equality scans — the strictly-greater residual
// is derived from the just-computed equality bitmap (AndNot), never
// scanned — and the walk's scan-side word counts are exactly those of G
// standalone equality scans. Materializing the selection first forces
// the legacy walk (a pre-built selection gates off single-pass).
func TestGroupByOneScanPerGroup(t *testing.T) {
	tbl, groups := groupStatsTable(t)
	q := tbl.Query().WithStats()
	q.Selection()
	g := q.GroupBy("key")
	if g.SinglePass() {
		t.Fatal("materialized selection should force the legacy walk")
	}
	if g.Len() != groups {
		t.Fatalf("groups = %d, want %d", g.Len(), groups)
	}
	s := q.Stats()
	if s.Scans != uint64(groups) {
		t.Errorf("discovery Scans = %d, want exactly one per group (%d)", s.Scans, groups)
	}

	// Word-count invariant: the walk must cost the same packed-word
	// comparisons as scanning each key's equality once by hand.
	man := NewStatsCollector()
	col := tbl.Column("key")
	for _, v := range g.Keys() {
		col.ScanStats(Equal(v), man)
	}
	ms := man.Snapshot()
	if s.WordsCompared != ms.WordsCompared {
		t.Errorf("WordsCompared = %d, want %d (G standalone equality scans)",
			s.WordsCompared, ms.WordsCompared)
	}
	if s.SegmentsScanned != ms.SegmentsScanned {
		t.Errorf("SegmentsScanned = %d, want %d", s.SegmentsScanned, ms.SegmentsScanned)
	}

	// The ctx-aware walk shares the invariant and the keys.
	q2 := tbl.Query().WithStats()
	q2.Selection()
	g2, err := q2.GroupByContext(context.Background(), "key")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != groups {
		t.Fatalf("ctx groups = %d, want %d", g2.Len(), groups)
	}
	for i, k := range g.Keys() {
		if g2.Keys()[i] != k {
			t.Fatalf("ctx keys %v != plain keys %v", g2.Keys(), g.Keys())
		}
	}
	if s2 := q2.Stats(); s2.Scans != uint64(groups) {
		t.Errorf("ctx discovery Scans = %d, want %d", s2.Scans, groups)
	}
}

// TestGroupedAggregatesVisibleInStats: legacy per-group aggregates must
// flow into the query's stats collector like everything else the query
// runs — one recorded aggregate per group for Sum, a per-group multiple
// for Avg. (The single-pass twin records one banked aggregate per call;
// see TestGroupSinglePassStats.)
func TestGroupedAggregatesVisibleInStats(t *testing.T) {
	tbl, groups := groupStatsTable(t)
	q := tbl.Query().WithStats()
	q.Selection()
	g := q.GroupBy("key")
	base := q.Stats()

	g.Sum("val")
	afterSum := q.Stats()
	if got := afterSum.Aggregates - base.Aggregates; got != uint64(groups) {
		t.Errorf("Grouped.Sum recorded %d aggregates, want one per group (%d)", got, groups)
	}
	if afterSum.WordsTouched <= base.WordsTouched {
		t.Error("Grouped.Sum moved no WordsTouched")
	}

	g.Avg("val")
	afterAvg := q.Stats()
	got := afterAvg.Aggregates - afterSum.Aggregates
	if got == 0 || got%uint64(groups) != 0 {
		t.Errorf("Grouped.Avg recorded %d aggregates, want a positive per-group multiple of %d", got, groups)
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
