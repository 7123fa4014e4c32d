package bpagg

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNullBasics(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		col := NewColumn(layout, 8)
		col.Append(10, 20)
		col.AppendNull()
		col.Append(30)
		col.AppendNull()
		if col.Len() != 5 {
			t.Fatalf("%v: Len = %d", layout, col.Len())
		}
		if col.NullCount() != 2 {
			t.Fatalf("%v: NullCount = %d", layout, col.NullCount())
		}
		for i, want := range []bool{false, false, true, false, true} {
			if col.IsNull(i) != want {
				t.Fatalf("%v: IsNull(%d) = %v", layout, i, !want)
			}
		}
	}
}

func TestNullScanAndAggregateSemantics(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		col := NewColumn(layout, 8)
		col.Append(5)
		col.AppendNull() // placeholder code 0 must not match anything
		col.Append(0)    // a real zero must still match
		col.Append(200)

		// NULL never satisfies a predicate — including = 0 and < anything.
		if sel := col.Scan(LessEq(255)); sel.Count() != 3 {
			t.Fatalf("%v: full-range scan selected %d rows, want 3", layout, sel.Count())
		}
		zero := col.Scan(Equal(0))
		if zero.Count() != 1 || !zero.Get(2) || zero.Get(1) {
			t.Fatalf("%v: Equal(0) selected wrong rows: %s", layout, "")
		}

		all := col.All()
		// COUNT(column) skips NULL; COUNT(*) does not.
		if got := col.Count(all); got != 3 {
			t.Fatalf("%v: Count = %d, want 3", layout, got)
		}
		if all.Count() != 4 {
			t.Fatalf("%v: COUNT(*) = %d, want 4", layout, all.Count())
		}
		if got := must(col.SumContext(bg, all)); got != 205 {
			t.Fatalf("%v: Sum = %d, want 205", layout, got)
		}
		if got, ok := must2(col.MinContext(bg, all)); !ok || got != 0 {
			t.Fatalf("%v: Min = (%d,%v), want 0", layout, got, ok)
		}
		if got, ok := must2(col.MaxContext(bg, all)); !ok || got != 200 {
			t.Fatalf("%v: Max = (%d,%v), want 200", layout, got, ok)
		}
		// Median of {0, 5, 200} = 5.
		if got, ok := must2(col.MedianContext(bg, all)); !ok || got != 5 {
			t.Fatalf("%v: Median = (%d,%v), want 5", layout, got, ok)
		}
		if got, ok := must2(col.AvgContext(bg, all)); !ok || got != 205.0/3 {
			t.Fatalf("%v: Avg = (%v,%v)", layout, got, ok)
		}
	}
}

func TestAllNullColumn(t *testing.T) {
	col := NewColumn(VBP, 8)
	col.AppendNull()
	col.AppendNull()
	all := col.All()
	if got := col.Count(all); got != 0 {
		t.Fatalf("Count over all-NULL = %d", got)
	}
	if got := must(col.SumContext(bg, all)); got != 0 {
		t.Fatalf("Sum over all-NULL = %d", got)
	}
	if _, ok := must2(col.MinContext(bg, all)); ok {
		t.Fatal("Min over all-NULL should report !ok")
	}
	if _, ok := must2(col.MedianContext(bg, all)); ok {
		t.Fatal("Median over all-NULL should report !ok")
	}
	if _, ok := must2(col.AvgContext(bg, all)); ok {
		t.Fatal("Avg over all-NULL should report !ok")
	}
	if sel := col.Scan(GreaterEq(0)); sel.Count() != 0 {
		t.Fatal("scan over all-NULL selected rows")
	}
}

func TestNullsInterleavedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for _, layout := range []Layout{VBP, HBP} {
		col := NewColumn(layout, 10)
		var present []uint64
		const n = 2000
		isNull := make([]bool, n)
		vals := make([]uint64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				col.AppendNull()
				isNull[i] = true
				continue
			}
			v := uint64(rng.Intn(1 << 10))
			col.Append(v)
			vals[i] = v
			present = append(present, v)
		}
		cut := uint64(512)
		sel := col.Scan(Less(cut))
		var kept []uint64
		for i := 0; i < n; i++ {
			want := !isNull[i] && vals[i] < cut
			if sel.Get(i) != want {
				t.Fatalf("%v: row %d selection = %v, want %v", layout, i, sel.Get(i), want)
			}
			if want {
				kept = append(kept, vals[i])
			}
		}
		var wantSum uint64
		for _, v := range kept {
			wantSum += v
		}
		if got := must(col.SumContext(bg, sel)); got != wantSum {
			t.Fatalf("%v: Sum = %d, want %d", layout, got, wantSum)
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
		if len(kept) > 0 {
			med, ok := must2(col.MedianContext(bg, sel))
			if !ok || med != kept[(len(kept)+1)/2-1] {
				t.Fatalf("%v: Median = (%d,%v)", layout, med, ok)
			}
		}
		// Rank walks the full distribution of non-NULL values.
		allPresent := append([]uint64(nil), present...)
		sort.Slice(allPresent, func(i, j int) bool { return allPresent[i] < allPresent[j] })
		all := col.All()
		for _, r := range []uint64{1, uint64(len(allPresent) / 2), uint64(len(allPresent))} {
			if got, ok := must2(col.RankContext(bg, all, r)); !ok || got != allPresent[r-1] {
				t.Fatalf("%v: Rank(%d) = (%d,%v), want %d", layout, r, got, ok, allPresent[r-1])
			}
		}
	}
}

func TestNullAfterAppendKeepsAlignment(t *testing.T) {
	// Appending non-NULL values after the first NULL must extend the
	// validity bitmap.
	col := NewColumn(HBP, 8)
	col.AppendNull()
	col.Append(make([]uint64, 200)...) // 200 zeros, all valid
	if col.NullCount() != 1 {
		t.Fatalf("NullCount = %d", col.NullCount())
	}
	if got := col.Count(col.All()); got != 200 {
		t.Fatalf("Count = %d, want 200", got)
	}
	if sel := col.Scan(Equal(0)); sel.Count() != 200 {
		t.Fatalf("Equal(0) = %d, want 200", sel.Count())
	}
}
