package parallel

import (
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/word"
)

func fixture(rng *rand.Rand, n, k int, sel float64) ([]uint64, *bitvec.Bitmap) {
	vals := make([]uint64, n)
	f := bitvec.New(n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
		if rng.Float64() < sel {
			f.Set(i)
		}
	}
	return vals, f
}

func TestPartition(t *testing.T) {
	cases := []struct {
		nseg, n int
		want    [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}}},
		{0, 4, [][2]int{{0, 0}}},
		{5, 1, [][2]int{{0, 5}}},
	}
	for _, c := range cases {
		got := partition(c.nseg, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("partition(%d,%d) = %v, want %v", c.nseg, c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("partition(%d,%d) = %v, want %v", c.nseg, c.n, got, c.want)
			}
		}
	}
}

func TestPartitionCoversEverySegment(t *testing.T) {
	for nseg := 1; nseg < 50; nseg++ {
		for n := 1; n <= 8; n++ {
			parts := partition(nseg, n)
			covered := 0
			last := 0
			for _, p := range parts {
				if p[0] != last {
					t.Fatalf("gap in partition(%d,%d): %v", nseg, n, parts)
				}
				covered += p[1] - p[0]
				last = p[1]
			}
			if covered != nseg || last != nseg {
				t.Fatalf("partition(%d,%d) covers %d segments: %v", nseg, n, covered, parts)
			}
		}
	}
}

var optsMatrix = []Options{
	{Threads: 1},
	{Threads: 2},
	{Threads: 4},
	{Threads: 16}, // more threads than segments in small fixtures
	{Threads: 0},  // degenerate: treated as serial
}
