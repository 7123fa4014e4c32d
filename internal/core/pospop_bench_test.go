package core

import (
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func benchCol(b *testing.B, k, n int, sel float64) (*vbp.Column, *bitvec.Bitmap) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, n)
	f := bitvec.New(n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
		if rng.Float64() < sel {
			f.Set(i)
		}
	}
	return vbp.Pack(vals, k, 4), f
}

func BenchmarkVBPSumPosPop(b *testing.B) {
	col, f := benchCol(b, 25, 1<<20, 0.1)
	b.SetBytes(int64(25 * (1 << 20) / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VBPSumRange(col, f, 0, col.NumSegments())
	}
}
