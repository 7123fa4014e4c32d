package bpagg

import (
	"math/rand"
	"sort"
	"testing"
)

func TestInPredicate(t *testing.T) {
	for _, layout := range []Layout{VBP, HBP} {
		col := FromValues(layout, 8, []uint64{5, 9, 5, 200, 0, 9})
		sel := col.Scan(In(5, 0, 77))
		if sel.Count() != 3 {
			t.Fatalf("%v: In selected %d rows", layout, sel.Count())
		}
		for i, want := range []bool{true, false, true, false, true, false} {
			if sel.Get(i) != want {
				t.Fatalf("%v: row %d = %v", layout, i, sel.Get(i))
			}
		}
		if col.Scan(In()).Count() != 0 {
			t.Fatalf("%v: empty In selected rows", layout)
		}
	}
	p := In(3, 5)
	if !p.Matches(3) || !p.Matches(5) || p.Matches(4) {
		t.Error("In.Matches wrong")
	}
	if p.String() != "IN (3, 5)" {
		t.Errorf("In.String = %q", p.String())
	}
}

func TestInPredicateSkipsNulls(t *testing.T) {
	col := NewColumn(VBP, 8)
	col.Append(7)
	col.AppendNull() // placeholder 0
	sel := col.Scan(In(0, 7))
	if sel.Count() != 1 || !sel.Get(0) {
		t.Fatalf("In over nulls selected %d rows", sel.Count())
	}
}

func TestTopKBottomKAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, layout := range []Layout{VBP, HBP} {
		const n = 2000
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(500)) // many duplicates
		}
		col := FromValues(layout, 9, vals)
		sel := col.Scan(Less(400))
		var kept []uint64
		for _, v := range vals {
			if v < 400 {
				kept = append(kept, v)
			}
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
		for _, k := range []int{1, 5, 64, len(kept), len(kept) + 10} {
			top := must(col.TopKContext(bg, sel, k))
			bottom := must(col.BottomKContext(bg, sel, k))
			wantK := k
			if wantK > len(kept) {
				wantK = len(kept)
			}
			if len(top) != wantK || len(bottom) != wantK {
				t.Fatalf("%v k=%d: lengths %d/%d, want %d", layout, k, len(top), len(bottom), wantK)
			}
			for i := 0; i < wantK; i++ {
				if top[i] != kept[len(kept)-1-i] {
					t.Fatalf("%v k=%d: top[%d] = %d, want %d", layout, k, i, top[i], kept[len(kept)-1-i])
				}
				if bottom[i] != kept[i] {
					t.Fatalf("%v k=%d: bottom[%d] = %d, want %d", layout, k, i, bottom[i], kept[i])
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	col := FromValues(VBP, 8, []uint64{42})
	if got := must(col.TopKContext(bg, col.All(), 3)); len(got) != 1 || got[0] != 42 {
		t.Fatalf("TopK over single row = %v", got)
	}
	if got := must(col.TopKContext(bg, col.None(), 3)); got != nil {
		t.Fatalf("TopK over empty selection = %v", got)
	}
	if got := must(col.TopKContext(bg, col.All(), 0)); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := must(col.BottomKContext(bg, col.All(), -1)); got != nil {
		t.Fatalf("BottomK(-1) = %v", got)
	}
}

func TestTopKAllEqual(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = 7
	}
	col := FromValues(HBP, 4, vals)
	got := must(col.TopKContext(bg, col.All(), 5))
	if len(got) != 5 {
		t.Fatalf("TopK = %v", got)
	}
	for _, v := range got {
		if v != 7 {
			t.Fatalf("TopK over constant column = %v", got)
		}
	}
}
