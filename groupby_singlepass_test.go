package bpagg

import (
	"context"
	"errors"
	"math/rand"
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
		sp := q.GroupBy("g")
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
		cmp("Count", sp.Count(), ref.Count())
		cmp("Sum", sp.Sum("v"), refSums)
		cmp("Min", sp.Min("v"), ref.Min("v"))
		cmp("Max", sp.Max("v"), ref.Max("v"))
		cmp("Median", sp.Median("v"), ref.Median("v"))
		spAvg, refAvg := sp.Avg("v"), ref.Avg("v")
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

	g := tbl.Query().GroupBy("g")
	if g.Strategy() != GroupHash {
		t.Fatalf("strategy = %v, want %v", g.Strategy(), GroupHash)
	}
	if g.Len() != n {
		t.Fatalf("groups = %d, want %d", g.Len(), n)
	}
	for i, sum := range g.Sum("v") {
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
	g := q.GroupBy("g")
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

	g.Sum("v")
	afterSum := q.Stats()
	if got := afterSum.Aggregates - s.Aggregates; got != 1 {
		t.Errorf("banked Sum recorded %d aggregates, want 1", got)
	}
	if afterSum.WordsTouched == s.WordsTouched {
		t.Error("banked Sum moved no WordsTouched")
	}

	g.Min("v")
	g.Max("v")
	afterExtremes := q.Stats()
	if got := afterExtremes.Aggregates - afterSum.Aggregates; got != 2 {
		t.Errorf("banked Min+Max recorded %d aggregates, want 2", got)
	}

	g.Count()
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
	g := q.GroupBy("key")
	base := q.Stats()
	g.Count()
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
// and a materialized selection: plain Sum/Avg panic with *OverflowError,
// SumContext/AvgContext return it, and the error carries the exact
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
			g := q.GroupBy("g")

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

			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("layout %v materialized=%v: plain Sum did not panic on overflow", layout, materialize)
					}
					e, ok := r.(error)
					if !ok || !errors.As(e, &ov) {
						t.Fatalf("layout %v: plain Sum panicked with %v, want *OverflowError", layout, r)
					}
				}()
				g.Sum("v")
			}()
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

		sp := tbl.Query().With(Parallel(th)).GroupBy("g")
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
		for i, v := range sp.Min("v") {
			if v != refMin[i] {
				t.Fatalf("min differs at group %d: %d vs %d", i, v, refMin[i])
			}
		}
		for i, v := range sp.Max("v") {
			if v != refMax[i] {
				t.Fatalf("max differs at group %d: %d vs %d", i, v, refMax[i])
			}
		}
		for i, v := range sp.Count() {
			if v != refCnt[i] {
				t.Fatalf("count differs at group %d: %d vs %d", i, v, refCnt[i])
			}
		}
	})
}
