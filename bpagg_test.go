package bpagg

import (
	"math/rand"
	"sort"
	"testing"

	"bpagg/internal/parallel"
)

func TestLayoutString(t *testing.T) {
	if VBP.String() != "VBP" || HBP.String() != "HBP" {
		t.Error("layout names wrong")
	}
}

func TestColumnBasics(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		col := NewColumn(layout, 12)
		if col.Len() != 0 || col.BitWidth() != 12 || col.Layout() != layout {
			t.Fatalf("%v: fresh column state wrong", layout)
		}
		col.Append(5, 100, 4095)
		if col.Len() != 3 {
			t.Fatalf("%v: Len = %d", layout, col.Len())
		}
		for i, want := range []uint64{5, 100, 4095} {
			if got := col.Value(i); got != want {
				t.Fatalf("%v: Value(%d) = %d, want %d", layout, i, got, want)
			}
		}
		if col.MemoryWords() == 0 {
			t.Fatalf("%v: MemoryWords = 0", layout)
		}
	}
}

func TestWithGroupBits(t *testing.T) {
	col := NewColumn(VBP, 12, WithGroupBits(3))
	if col.GroupBits() != 3 {
		t.Errorf("GroupBits = %d, want 3", col.GroupBits())
	}
	h := NewColumn(HBP, 12, WithGroupBits(5))
	if h.GroupBits() != 5 {
		t.Errorf("HBP GroupBits = %d, want 5", h.GroupBits())
	}
}

func TestVBPNarrowColumnDefaultTau(t *testing.T) {
	// Default VBP tau is 4 but must clamp for narrower values.
	col := NewColumn(VBP, 2)
	col.Append(1, 2, 3)
	if got := col.Sum(col.All()); got != 6 {
		t.Errorf("Sum = %d", got)
	}
}

// endToEnd cross-checks the whole public pipeline against plain-slice
// evaluation on a random workload.
func TestEndToEndAgainstPlainSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, k = 3000, 14
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << k))
	}
	for _, layout := range []Layout{VBP, HBP} {
		col := FromValues(layout, k, vals)
		preds := []Predicate{
			Less(5000), Greater(5000), Equal(vals[17]), NotEqual(vals[17]),
			LessEq(vals[0]), GreaterEq(vals[0]), Between(1000, 9000),
		}
		for _, p := range preds {
			sel := col.Scan(p)
			var kept []uint64
			var sum uint64
			for i, v := range vals {
				if p.Matches(v) != sel.Get(i) {
					t.Fatalf("%v %s: row %d (value %d) mismatch", layout, p, i, v)
				}
				if sel.Get(i) {
					kept = append(kept, v)
					sum += v
				}
			}
			if got := col.Count(sel); got != uint64(len(kept)) {
				t.Fatalf("%v %s: Count = %d, want %d", layout, p, got, len(kept))
			}
			if got := col.Sum(sel); got != sum {
				t.Fatalf("%v %s: Sum = %d, want %d", layout, p, got, sum)
			}
			sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
			if len(kept) > 0 {
				if got, ok := col.Min(sel); !ok || got != kept[0] {
					t.Fatalf("%v %s: Min = (%d,%v), want %d", layout, p, got, ok, kept[0])
				}
				if got, ok := col.Max(sel); !ok || got != kept[len(kept)-1] {
					t.Fatalf("%v %s: Max = (%d,%v)", layout, p, got, ok)
				}
				wantMed := kept[(len(kept)+1)/2-1]
				if got, ok := col.Median(sel); !ok || got != wantMed {
					t.Fatalf("%v %s: Median = (%d,%v), want %d", layout, p, got, ok, wantMed)
				}
				wantAvg := float64(sum) / float64(len(kept))
				if got, ok := col.Avg(sel); !ok || got != wantAvg {
					t.Fatalf("%v %s: Avg = (%v,%v), want %v", layout, p, got, ok, wantAvg)
				}
			}
		}
	}
}

func TestExecOptionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n, k = 5000, 20
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << k))
	}
	for _, layout := range []Layout{VBP, HBP} {
		col := FromValues(layout, k, vals)
		sel := col.Scan(Less(1 << 19))
		base := col.Sum(sel)
		baseMed, _ := col.Median(sel)
		for _, opts := range [][]ExecOption{
			{Parallel(4)},
			{Parallel(8)},
			{Parallel(1)},
		} {
			if got := col.Sum(sel, opts...); got != base {
				t.Fatalf("%v Sum with %d opts: got %d want %d", layout, len(opts), got, base)
			}
			if got, ok := col.Median(sel, opts...); !ok || got != baseMed {
				t.Fatalf("%v Median with opts: got (%d,%v) want %d", layout, got, ok, baseMed)
			}
		}
	}
}

// TestExecOptionsAllocFree pins that resolving an option list allocates
// nothing: every aggregate call, query eval and fan-out resolves one.
func TestExecOptionsAllocFree(t *testing.T) {
	opts := []ExecOption{Parallel(4), CollectStats(NewStatsCollector())}
	var c parallel.Options
	if allocs := testing.AllocsPerRun(100, func() { c = execOptions(opts) }); allocs != 0 {
		t.Fatalf("execOptions allocates %v times per call, want 0", allocs)
	}
	if c.Threads != 4 || c.Stats == nil {
		t.Fatalf("execOptions resolved %+v", c)
	}
}

func TestBitmapOps(t *testing.T) {
	col := FromValues(VBP, 8, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	lo := col.Scan(Less(5)) // 1,2,3,4
	even := NewBitmap(col.Len())
	for i := 1; i < 8; i += 2 {
		even.Set(i) // values 2,4,6,8
	}
	both := lo.Clone().And(even) // 2,4
	if both.Count() != 2 {
		t.Errorf("And count = %d", both.Count())
	}
	if got := col.Sum(both); got != 6 {
		t.Errorf("Sum over And = %d", got)
	}
	either := lo.Clone().Or(even)
	if either.Count() != 6 {
		t.Errorf("Or count = %d", either.Count())
	}
	neither := either.Clone().Not()
	if neither.Count() != 2 { // values 5,7
		t.Errorf("Not count = %d", neither.Count())
	}
	diff := lo.Clone().AndNot(even) // 1,3
	if got := col.Sum(diff); got != 4 {
		t.Errorf("Sum over AndNot = %d", got)
	}
	var rows []int
	both.ForEach(func(r int) { rows = append(rows, r) })
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 {
		t.Errorf("ForEach rows = %v", rows)
	}
}

func TestQuantile(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i + 1) // 1..100
	}
	col := FromValues(HBP, 7, vals)
	all := col.All()
	cases := []struct {
		q    float64
		want uint64
	}{
		{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.25, 25},
	}
	for _, c := range cases {
		if got, ok := col.Quantile(all, c.q); !ok || got != c.want {
			t.Errorf("Quantile(%v) = (%d,%v), want %d", c.q, got, ok, c.want)
		}
	}
	if _, ok := col.Quantile(col.None(), 0.5); ok {
		t.Error("Quantile over empty selection should report !ok")
	}
}

func TestSelectionLengthMismatchPanics(t *testing.T) {
	a := FromValues(VBP, 8, []uint64{1, 2, 3})
	b := FromValues(VBP, 8, []uint64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched selection did not panic")
		}
	}()
	a.Sum(b.All())
}

func TestRankBounds(t *testing.T) {
	col := FromValues(VBP, 8, []uint64{9, 3, 7})
	all := col.All()
	if v, ok := col.Rank(all, 1); !ok || v != 3 {
		t.Errorf("Rank(1) = (%d,%v)", v, ok)
	}
	if v, ok := col.Rank(all, 3); !ok || v != 9 {
		t.Errorf("Rank(3) = (%d,%v)", v, ok)
	}
	if _, ok := col.Rank(all, 0); ok {
		t.Error("Rank(0) should report !ok")
	}
	if _, ok := col.Rank(all, 4); ok {
		t.Error("Rank(4) should report !ok")
	}
}
