package nbp

import (
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func TestParallelNBPMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, sh := range []struct {
		n   int
		k   int
		sel float64
	}{
		{1, 8, 1}, {700, 25, 0.3}, {3000, 12, 0.01}, {500, 8, 0},
	} {
		vals := make([]uint64, sh.n)
		f := bitvec.New(sh.n)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(sh.k)
			if rng.Float64() < sh.sel {
				f.Set(i)
			}
		}
		cols := []valueSource{
			vbp.Pack(vals, sh.k, 4),
			hbp.Pack(vals, sh.k, hbp.DefaultTau(sh.k)),
		}
		for ci, col := range cols {
			for _, o := range []Options{{Threads: 0}, {Threads: 1}, {Threads: 3}, {Threads: 16}} {
				if got, want := Sum(col, f, o), Sum(col, f, Options{}); got != want {
					t.Fatalf("col %d Sum %+v: got %d want %d", ci, o, got, want)
				}
				gm, okm := Min(col, f, o)
				wm, wok := Min(col, f, Options{})
				if gm != wm || okm != wok {
					t.Fatalf("col %d Min %+v: got (%d,%v) want (%d,%v)", ci, o, gm, okm, wm, wok)
				}
				gm, okm = Max(col, f, o)
				wm, wok = Max(col, f, Options{})
				if gm != wm || okm != wok {
					t.Fatalf("col %d Max %+v: got (%d,%v) want (%d,%v)", ci, o, gm, okm, wm, wok)
				}
				gm, okm = Median(col, f, o)
				wm, wok = Median(col, f, Options{})
				if gm != wm || okm != wok {
					t.Fatalf("col %d Median %+v: got (%d,%v) want (%d,%v)", ci, o, gm, okm, wm, wok)
				}
				ga, oka := Avg(col, f, o)
				wa, wokA := Avg(col, f, Options{})
				if ga != wa || oka != wokA {
					t.Fatalf("col %d Avg %+v: got (%v,%v) want (%v,%v)", ci, o, ga, oka, wa, wokA)
				}
			}
		}
	}
}
