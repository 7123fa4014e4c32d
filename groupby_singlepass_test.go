package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildGroupTable assembles a two-column table: "g" (grouping) and "v"
// (measure), with the given layouts and widths.
func buildGroupTable(t testing.TB, layoutG, layoutV Layout, kG, kV int, keys, vals []uint64) *Table {
	t.Helper()
	tbl := NewTable()
	tbl.AddColumn("g", layoutG, kG)
	tbl.AddColumn("v", layoutV, kV)
	tbl.AppendColumnar(map[string][]uint64{"g": keys, "v": vals})
	return tbl
}

// checkAgainstReferenceWalk runs the same grouped query over a lazy and
// over a materialized selection and requires both partitions to be
// bit-identical — keys, selections, and aggregates — to the reference
// walk over the same rows.
func checkAgainstReferenceWalk(t *testing.T, tbl *Table, threads int, withFilter bool) {
	t.Helper()
	mk := func() *Query {
		q := tbl.Query().With(Parallel(threads))
		if withFilter {
			q.Where("v", GreaterEq(1))
		}
		return q
	}
	ref := referenceGroupWalk(t, tbl, mk().Selection(), "g")
	refSums, err := ref.SumContext(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, materialize := range []bool{false, true} {
		q := mk()
		if materialize {
			q.Selection()
		}
		sp := must(q.GroupByContext(bg, "g"))
		requireSameGroups(t, sp, ref)
		cmp := func(name string, a, b []uint64) {
			t.Helper()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s differs at group %d (materialized=%v): engine %d, reference walk %d",
						name, i, materialize, a[i], b[i])
				}
			}
		}
		cmp("Count", must(sp.CountContext(bg)), ref.Count())
		cmp("Sum", must(sp.SumContext(bg, "v")), refSums)
		cmp("Min", must(sp.MinContext(bg, "v")), ref.Min("v"))
		cmp("Max", must(sp.MaxContext(bg, "v")), ref.Max("v"))
		cmp("Median", must(sp.MedianContext(bg, "v")), ref.Median("v"))
		spAvg, refAvg := must(sp.AvgContext(bg, "v")), ref.Avg("v")
		for i := range spAvg {
			if spAvg[i] != refAvg[i] {
				t.Fatalf("Avg differs at group %d: engine %v, reference walk %v", i, spAvg[i], refAvg[i])
			}
		}
	}
}

// TestGroupSinglePassMatchesLegacy sweeps layouts, widths, cardinalities
// (including the G=1 and G=segment-count edges), and thread counts,
// requiring the single-pass partition to agree everywhere with the
// per-group walk that used to be the engine's legacy tier and is now the
// test-side reference (referenceGroupWalk).
func TestGroupSinglePassMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	layouts := []Layout{VBP, HBP}
	for _, n := range []int{63, 64, 200, 2048} {
		for _, G := range []int{1, 2, 7, 32, n} {
			if G > n || G > MaxSinglePassGroups {
				continue
			}
			for _, lg := range layouts {
				for _, lv := range layouts {
					kG := 1
					for 1<<kG < G {
						kG++
					}
					kV := 1 + rng.Intn(20)
					keys := make([]uint64, n)
					vals := make([]uint64, n)
					for i := range keys {
						keys[i] = uint64(rng.Intn(G))
						vals[i] = rng.Uint64() & ((1 << kV) - 1)
					}
					tbl := buildGroupTable(t, lg, lv, kG, kV, keys, vals)
					for _, th := range []int{1, 8} {
						checkAgainstReferenceWalk(t, tbl, th, false)
						checkAgainstReferenceWalk(t, tbl, th, true)
					}
				}
			}
		}
	}
}

// TestGroupCardinalityBudget pins the ladder around the direct index's
// width: a grouping column just past the 10-bit direct key width runs on
// the hashed index, and a cardinality past the key budget is
// ErrGroupCardinality — there is no slower tier behind it. The budget is
// lowered through the unexported test hook so the error is reached
// without building 2^20 distinct keys; a filter that brings the key count
// back under the budget answers again.
func TestGroupCardinalityBudget(t *testing.T) {
	n := 1324 // more keys than a direct index holds, kG=11 > DirectKeyBits
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = uint64(i % 97)
	}
	tbl := buildGroupTable(t, VBP, VBP, 11, 7, keys, vals)

	g := must(tbl.Query().GroupByContext(bg, "g"))
	if g.Strategy() != GroupHash {
		t.Fatalf("strategy = %v, want %v", g.Strategy(), GroupHash)
	}
	if g.Len() != n {
		t.Fatalf("groups = %d, want %d", g.Len(), n)
	}
	for i, sum := range must(g.SumContext(bg, "v")) {
		if sum != uint64(i%97) {
			t.Fatalf("group %d sum = %d, want %d", i, sum, i%97)
		}
	}

	defer LowerHashGroupBudget(1000)()
	if _, err := tbl.Query().GroupByContext(context.Background(), "g"); !errors.Is(err, ErrGroupCardinality) {
		t.Fatalf("%d groups over the lowered hash budget %d: err = %v, want ErrGroupCardinality",
			n, maxHashGroups, err)
	}
	under, err := tbl.Query().Where("g", Less(1000)).GroupByContext(context.Background(), "g")
	if err != nil {
		t.Fatalf("1000 groups at budget 1000: %v", err)
	}
	if under.Len() != 1000 {
		t.Fatalf("groups = %d, want 1000", under.Len())
	}
}

// TestGroupSinglePassStats asserts the single-pass counters: one
// partition scan discovering all groups, banked words, and exactly one
// recorded aggregate per banked call.
func TestGroupSinglePassStats(t *testing.T) {
	const n, groups = 2048, 8
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	rng := rand.New(rand.NewSource(72))
	for i := range keys {
		keys[i] = uint64(i % groups) // every group live in every segment
		vals[i] = uint64(rng.Intn(1 << 10))
	}
	tbl := buildGroupTable(t, VBP, VBP, 3, 10, keys, vals)

	q := tbl.Query().WithStats()
	g := must(q.GroupByContext(bg, "g"))
	s := q.Stats()
	if s.Scans != 1 {
		t.Errorf("partition Scans = %d, want 1 (one traversal for all groups)", s.Scans)
	}
	if s.GroupsDiscovered != groups {
		t.Errorf("GroupsDiscovered = %d, want %d", s.GroupsDiscovered, groups)
	}
	if want := uint64(groups * n / 64); s.GroupBankWords != want {
		t.Errorf("GroupBankWords = %d, want %d (every group live in every segment)",
			s.GroupBankWords, want)
	}

	must(g.SumContext(bg, "v"))
	afterSum := q.Stats()
	if got := afterSum.Aggregates - s.Aggregates; got != 1 {
		t.Errorf("banked Sum recorded %d aggregates, want 1", got)
	}
	if afterSum.WordsTouched == s.WordsTouched {
		t.Error("banked Sum moved no WordsTouched")
	}

	must(g.MinContext(bg, "v"))
	must(g.MaxContext(bg, "v"))
	afterExtremes := q.Stats()
	if got := afterExtremes.Aggregates - afterSum.Aggregates; got != 2 {
		t.Errorf("banked Min+Max recorded %d aggregates, want 2", got)
	}

	must(g.CountContext(bg))
	afterCount := q.Stats()
	if got := afterCount.Aggregates - afterExtremes.Aggregates; got != groups {
		t.Errorf("Count recorded %d aggregates, want one per group (%d)", got, groups)
	}
}

// TestGroupedCountRecordsStatsLegacy pins the count contract over a
// materialized selection too: Grouped.Count and CountContext record one
// aggregate per group however the partition's base bitmap was built.
func TestGroupedCountRecordsStatsLegacy(t *testing.T) {
	tbl, groups := groupStatsTable(t)
	q := tbl.Query().WithStats()
	q.Selection()
	g := must(q.GroupByContext(bg, "key"))
	base := q.Stats()
	must(g.CountContext(bg))
	after := q.Stats()
	if got := after.Aggregates - base.Aggregates; got != uint64(groups) {
		t.Errorf("Count recorded %d aggregates, want %d", got, groups)
	}
	if _, err := g.CountContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	after2 := q.Stats()
	if got := after2.Aggregates - after.Aggregates; got != uint64(groups) {
		t.Errorf("CountContext recorded %d aggregates, want %d", got, groups)
	}
}

// TestGroupedSumOverflow pins the grouped overflow contract over a lazy
// and a materialized selection: SumContext/AvgContext return
// *OverflowError, and the error carries the exact
// 128-bit total — the one the reference walk's per-group SumContext
// reports for the same group.
func TestGroupedSumOverflow(t *testing.T) {
	const n = 128
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % 2)
		vals[i] = 1 << 63 // each group's sum is 64 << 63 = 2^69
	}
	const want = "590295810358705651712" // 64 * 2^63 = 2^69
	for _, layout := range []Layout{VBP, HBP} {
		tbl := buildGroupTable(t, layout, layout, 1, 64, keys, vals)
		var ov *OverflowError
		_, err := referenceGroupWalk(t, tbl, tbl.Query().Selection(), "g").SumContext(context.Background(), "v")
		if !errors.As(err, &ov) || ov.Big().String() != want {
			t.Fatalf("layout %v: reference walk SumContext = %v, want *OverflowError of %s", layout, err, want)
		}
		for _, materialize := range []bool{false, true} {
			q := tbl.Query()
			if materialize {
				q.Selection()
			}
			g := must(q.GroupByContext(bg, "g"))

			_, err := g.SumContext(context.Background(), "v")
			if !errors.As(err, &ov) {
				t.Fatalf("layout %v materialized=%v: SumContext = %v, want *OverflowError", layout, materialize, err)
			}
			if ov.Big().String() != want {
				t.Fatalf("layout %v: overflow total = %s, want %s", layout, ov.Big().String(), want)
			}
			if _, err := g.AvgContext(context.Background(), "v"); !errors.As(err, &ov) {
				t.Fatalf("layout %v materialized=%v: AvgContext = %v, want *OverflowError", layout, materialize, err)
			}
		}
	}
}

// FuzzGroupSinglePass drives the property check with fuzz-chosen data
// shapes: the single-pass engine must stay bit-identical to the reference
// walk for any layout pair, width, cardinality, and thread count.
func FuzzGroupSinglePass(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(12), uint8(0), uint8(1))
	f.Add(int64(2), uint16(64), uint8(1), uint8(64), uint8(1), uint8(8))
	f.Add(int64(3), uint16(1000), uint8(6), uint8(30), uint8(2), uint8(4))
	f.Add(int64(4), uint16(63), uint8(10), uint8(7), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kG, kV, layouts, threads uint8) {
		if n == 0 {
			return
		}
		kGi := 1 + int(kG)%10 // ≤ 2^10 keys: covers both direct and hash-adjacent widths cheaply
		kVi := 1 + int(kV)%64
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() & ((1 << kGi) - 1)
			var mask uint64 = (1 << kVi) - 1
			if kVi == 64 {
				mask = ^uint64(0)
			}
			vals[i] = rng.Uint64() & mask
		}
		lg, lv := VBP, VBP
		if layouts&1 != 0 {
			lg = HBP
		}
		if layouts&2 != 0 {
			lv = HBP
		}
		tbl := buildGroupTable(t, lg, lv, kGi, kVi, keys, vals)
		th := 1 + int(threads)%8

		sp := must(tbl.Query().With(Parallel(th)).GroupByContext(bg, "g"))
		ref := referenceGroupWalk(t, tbl, tbl.Query().Selection(), "g")
		requireSameGroups(t, sp, ref)

		ctx := context.Background()
		spSums, spErr := sp.SumContext(ctx, "v")
		refSums, refErr := ref.SumContext(ctx, "v")
		var spOv, refOv *OverflowError
		if errors.As(spErr, &spOv) != errors.As(refErr, &refOv) {
			t.Fatalf("overflow disagreement: engine err=%v, reference walk err=%v", spErr, refErr)
		}
		if spOv != nil {
			if spOv.Hi != refOv.Hi || spOv.Lo != refOv.Lo {
				t.Fatalf("overflow totals differ: %v vs %v", spOv.Big(), refOv.Big())
			}
		} else {
			for i := range spSums {
				if spSums[i] != refSums[i] {
					t.Fatalf("sum differs at group %d: %d vs %d", i, spSums[i], refSums[i])
				}
			}
		}
		refMin, refMax, refCnt := ref.Min("v"), ref.Max("v"), ref.Count()
		for i, v := range must(sp.MinContext(bg, "v")) {
			if v != refMin[i] {
				t.Fatalf("min differs at group %d: %d vs %d", i, v, refMin[i])
			}
		}
		for i, v := range must(sp.MaxContext(bg, "v")) {
			if v != refMax[i] {
				t.Fatalf("max differs at group %d: %d vs %d", i, v, refMax[i])
			}
		}
		for i, v := range must(sp.CountContext(bg)) {
			if v != refCnt[i] {
				t.Fatalf("count differs at group %d: %d vs %d", i, v, refCnt[i])
			}
		}
		checkMeasuredPass(t, seed, int(n), lg, lv, kGi, min(kVi, 32))
	})
}

// checkMeasuredPass is FuzzGroupSinglePass's arm for the measured GROUP BY
// (GroupByAggsContext), which banks its aggregates as it partitions: with
// the chunk shrunk to one least common multiple of the window widths, at
// Threads 1, 2 and 8, its answers must equal the kept-list aggregates of
// GroupByContext and a naive oracle. The table adds a NULL-bearing measure
// nv, an HBP k = 6 measure q (63-row windows), an HBP k = 6 key h for a
// composite of mixed window widths and a VBP filter column f; the filters
// are none, one on f (fusing with a VBP key) and one on q (never fusing
// with a VBP key). A key budget one short of the key count must return
// ErrGroupCardinality and no result.
func checkMeasuredPass(t *testing.T, seed int64, n int, lg, lv Layout, kG, kV int) {
	t.Helper()
	defer func(old int) { groupChunkRows = old }(groupChunkRows)
	groupChunkRows = 1
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := []string{"g", "h", "v", "nv", "q", "f"}
	cols := []*Column{NewColumn(lg, kG), NewColumn(HBP, 6), NewColumn(lv, kV), NewColumn(lv, kV), NewColumn(HBP, 6), NewColumn(VBP, 8)}
	data := map[string][]uint64{}
	nulls := make([]bool, n)
	for j, name := range names {
		c, k := cols[j], cols[j].k
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() >> uint(64-k)
			if name == "nv" && rng.Intn(4) == 0 {
				nulls[i] = true
				c.AppendNull()
				continue
			}
			c.Append(vals[i])
		}
		data[name] = vals
	}
	store := PartitionTable(NewTableFromColumns(names, cols))

	aggs := []GroupAgg{{Op: "SUM", Column: "v"}, {Op: "MIN", Column: "v"}, {Op: "MAX", Column: "v"},
		{Op: "AVG", Column: "nv"}, {Op: "COUNT", Column: "nv"}, {Op: "MIN", Column: "nv"}, {Op: "MAX", Column: "nv"}, {Op: "SUM", Column: "q"}, {Op: "MAX", Column: "q"}}
	filters := []struct {
		col  string
		pred Predicate
		keep func(i int) bool
	}{
		{"", Predicate{}, func(int) bool { return true }},
		{"f", Less(96), func(i int) bool { return data["f"][i] < 96 }},
		{"q", Less(40), func(i int) bool { return data["q"][i] < 40 }},
	}
	ctx := context.Background()
	for _, by := range [][]string{{"g"}, {"g", "h"}} {
		for _, fl := range filters {
			oracle := map[uint64]*measuredAcc{}
			for i := 0; i < n; i++ {
				if !fl.keep(i) {
					continue
				}
				key := data["g"][i]
				if len(by) == 2 {
					key = key<<6 | data["h"][i]
				}
				a := oracle[key]
				if a == nil {
					a = &measuredAcc{vMin: ^uint64(0), nvMin: ^uint64(0)}
					oracle[key] = a
				}
				v, q := data["v"][i], data["q"][i]
				a.rows++
				a.vSum += v
				a.vMin, a.vMax = min(a.vMin, v), max(a.vMax, v)
				a.qSum += q
				a.qMax = max(a.qMax, q)
				a.qs = append(a.qs, q)
				if !nulls[i] {
					nv := data["nv"][i]
					a.nvCnt++
					a.nvSum += nv
					a.nvMin, a.nvMax = min(a.nvMin, nv), max(a.nvMax, nv)
				}
			}
			query := func(th int) *ShardedQuery {
				sq := store.Query().With(Parallel(th))
				if fl.col != "" {
					sq.Where(fl.col, fl.pred)
				}
				return sq
			}
			for _, th := range []int{1, 2, 8} {
				for _, rank := range []bool{false, true} {
					named := aggs
					if rank {
						named = append(slices.Clip(aggs), GroupAgg{Op: "MEDIAN", Column: "q"})
					}
					g, err := query(th).GroupByAggsContext(ctx, by, named)
					if err != nil {
						t.Fatal(err)
					}
					kept, err := query(th).GroupByContext(ctx, by...)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("GROUP BY %v WHERE %s, threads %d, rank %v", by, fl.col, th, rank)
					sameMeasured(t, label, g, kept, oracle, rank)
				}
			}
			if len(oracle) < 2 {
				continue
			}
			restore := LowerHashGroupBudget(len(oracle) - 1)
			g, err := query(2).GroupByAggsContext(ctx, by, aggs)
			restore()
			if g != nil || !errors.Is(err, ErrGroupCardinality) {
				t.Fatalf("GROUP BY %v WHERE %s past the budget: %v, %v; want no result and ErrGroupCardinality", by, fl.col, g, err)
			}
		}
	}
	g, err := store.Query().GroupByAggsContext(ctx, []string{"g"}, aggs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.values(ctx, aggCall{op: opMax, column: "v"}); err == nil {
		t.Fatal("MAX(v) answered by a GROUP BY built for SUM(v) alone")
	}
	if _, err := g.nonNullCounts(ctx, "f"); err == nil {
		t.Fatal("COUNT(f) answered by a GROUP BY built for SUM(v) alone")
	}
	// A result is the caller's: editing it changes no later answer.
	first, err := g.SumContext(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first)
	for i := range first {
		first[i]++
	}
	if again, err := g.SumContext(ctx, "v"); err != nil || !slices.Equal(again, want) {
		t.Fatalf("SUM(v) after editing the first answer: %v, %v; want %v", again, err, want)
	}
}

// measuredAcc is checkMeasuredPass's oracle for one group.
type measuredAcc struct {
	rows, vSum, vMin, vMax, nvCnt, nvSum, nvMin, nvMax, qSum, qMax uint64
	qs                                                             []uint64
}

// sameMeasured compares one measured GROUP BY with the kept-list one and
// the oracle, group by group.
func sameMeasured(t *testing.T, label string, g, kept *ShardedGrouped, oracle map[uint64]*measuredAcc, rank bool) {
	t.Helper()
	ctx := context.Background()
	if !slices.Equal(g.Keys(), kept.Keys()) || g.Len() != len(oracle) {
		t.Fatalf("%s: keys %v, kept list %v, oracle has %d", label, g.Keys(), kept.Keys(), len(oracle))
	}
	answers := func(g *ShardedGrouped) (out [][]uint64) {
		vals := func(v []uint64, err error) []uint64 {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return v
		}
		ok := func(v []uint64, oks []bool, err error) []uint64 {
			for i := range v {
				if !oks[i] {
					v[i] = ^uint64(0) // all NULL: the oracle's empty extremes
				}
			}
			return vals(v, err)
		}
		out = append(out, vals(g.CountContext(ctx)), vals(g.SumContext(ctx, "v")), ok(g.values(ctx, aggCall{op: opMin, column: "v"})), ok(g.values(ctx, aggCall{op: opMax, column: "v"})),
			vals(g.nonNullCounts(ctx, "nv")), vals(g.SumContext(ctx, "nv")), ok(g.values(ctx, aggCall{op: opMin, column: "nv"})), ok(g.values(ctx, aggCall{op: opMax, column: "nv"})),
			vals(g.SumContext(ctx, "q")), ok(g.values(ctx, aggCall{op: opMax, column: "q"})))
		if rank {
			out = append(out, vals(g.MedianContext(ctx, "q")))
		}
		return out
	}
	got, want := answers(g), answers(kept)
	for i, key := range g.Keys() {
		a := oracle[key]
		nvMin, nvMax := a.nvMin, a.nvMax
		if a.nvCnt == 0 {
			nvMax = ^uint64(0)
		}
		exp := []uint64{a.rows, a.vSum, a.vMin, a.vMax, a.nvCnt, a.nvSum, nvMin, nvMax, a.qSum, a.qMax}
		if rank {
			qs := slices.Clone(a.qs)
			slices.Sort(qs)
			exp = append(exp, qs[(len(qs)-1)/2])
		}
		for j := range exp {
			if got[j][i] != want[j][i] || got[j][i] != exp[j] {
				t.Fatalf("%s: group %d (key %d), answer %d: measured %d, kept list %d, oracle %d", label, i, key, j, got[j][i], want[j][i], exp[j])
			}
		}
	}
}
