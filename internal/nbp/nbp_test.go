package nbp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func makeData(rng *rand.Rand, n, k int, sel float64) ([]uint64, *bitvec.Bitmap, []uint64) {
	vals := make([]uint64, n)
	f := bitvec.New(n)
	var kept []uint64
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
		if rng.Float64() < sel {
			f.Set(i)
			kept = append(kept, vals[i])
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return vals, f, kept
}

func TestAggregatesBothLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sh := range []struct {
		n   int
		k   int
		sel float64
	}{
		{1, 4, 1}, {64, 8, 0.5}, {257, 25, 0.1}, {300, 12, 0.9}, {100, 8, 0},
	} {
		vals, f, kept := makeData(rng, sh.n, sh.k, sh.sel)
		cols := []valueSource{
			vbp.Pack(vals, sh.k, 4),
			hbp.Pack(vals, sh.k, hbp.DefaultTau(sh.k)),
		}
		var wantSum uint64
		for _, v := range kept {
			wantSum += v
		}
		for ci, col := range cols {
			if got := Sum(col, f, Options{}); got != wantSum {
				t.Fatalf("col %d Sum = %d, want %d", ci, got, wantSum)
			}
			gotMin, okMin := Min(col, f, Options{})
			gotMax, okMax := Max(col, f, Options{})
			gotMed, okMed := Median(col, f, Options{})
			if okMin != (len(kept) > 0) || okMax != okMin || okMed != okMin {
				t.Fatalf("col %d ok flags wrong", ci)
			}
			if len(kept) > 0 {
				if gotMin != kept[0] {
					t.Fatalf("col %d Min = %d, want %d", ci, gotMin, kept[0])
				}
				if gotMax != kept[len(kept)-1] {
					t.Fatalf("col %d Max = %d, want %d", ci, gotMax, kept[len(kept)-1])
				}
				wantMed := kept[(len(kept)+1)/2-1]
				if gotMed != wantMed {
					t.Fatalf("col %d Median = %d, want %d", ci, gotMed, wantMed)
				}
				avg, _ := Avg(col, f, Options{})
				if want := float64(wantSum) / float64(len(kept)); avg != want {
					t.Fatalf("col %d Avg = %v, want %v", ci, avg, want)
				}
			}
		}
	}
}

func TestEmptySelection(t *testing.T) {
	col := vbp.Pack([]uint64{5, 6}, 4, 2)
	f := bitvec.New(2)
	if Sum(col, f, Options{}) != 0 {
		t.Error("Sum over empty selection should be 0")
	}
	if _, ok := Min(col, f, Options{}); ok {
		t.Error("Min over empty selection should report !ok")
	}
	if _, ok := Median(col, f, Options{}); ok {
		t.Error("Median over empty selection should report !ok")
	}
	if _, ok := Avg(col, f, Options{}); ok {
		t.Error("Avg over empty selection should report !ok")
	}
}

func TestCount(t *testing.T) {
	f := bitvec.New(10)
	f.Set(1)
	f.Set(9)
	if Count(f) != 2 {
		t.Errorf("Count = %d", Count(f))
	}
}

func TestFilterLengthMismatchPanics(t *testing.T) {
	col := vbp.Pack([]uint64{1}, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched filter did not panic")
		}
	}()
	Sum(col, bitvec.New(2), Options{})
}

func TestQuickselectAgainstSort(t *testing.T) {
	f := func(raw []uint64, rSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := uint64(rSeed)%uint64(len(raw)) + 1
		sorted := append([]uint64(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		work := append([]uint64(nil), raw...)
		return Quickselect(work, r) == sorted[r-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickselectDuplicateHeavy(t *testing.T) {
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(i % 3)
	}
	// Ranks 1..3334 -> 0, 3335..6667 -> 1, 6668..10000 -> 2.
	for _, c := range []struct{ r, want uint64 }{
		{1, 0}, {3334, 0}, {3335, 1}, {6667, 1}, {6668, 2}, {10000, 2},
	} {
		work := append([]uint64(nil), vals...)
		if got := Quickselect(work, c.r); got != c.want {
			t.Errorf("Quickselect rank %d = %d, want %d", c.r, got, c.want)
		}
	}
}
