// Overhead guard for the observability layer (DESIGN.md §8): metrics are
// disabled by default and the disabled path must cost nothing measurable
// on the hot aggregation loop. The paper's headline numbers are a few
// tenths of a ns/tuple, so even small fixed costs would show.
//
//	go test -bench 'VBPSumStats' -count 10
//
// compares the VBP SUM hot path with collection off (the default, which
// takes the identical pre-observability code path) and on (stats derived
// analytically per driver call). The off/on gap is the full price of
// observability; off vs the pre-metrics tree is by construction the same
// machine code plus one nil check per driver entry.
package bpagg_test

import (
	"bpagg"

	"math/rand"
	"testing"
)

func statsBenchColumn(b *testing.B, layout bpagg.Layout) (*bpagg.Column, *bpagg.Bitmap) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	const k = 25
	vals := make([]uint64, benchN)
	for i := range vals {
		vals[i] = rng.Uint64() & ((1 << k) - 1)
	}
	col := bpagg.NewColumn(layout, k)
	col.Append(vals...)
	return col, col.Scan(bpagg.Less(1 << (k - 1)))
}

func BenchmarkVBPSumStatsOff(b *testing.B) {
	col, sel := statsBenchColumn(b, bpagg.VBP)
	b.SetBytes(benchN / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(col.SumContext(bg, sel))
	}
}

func BenchmarkVBPSumStatsOn(b *testing.B) {
	col, sel := statsBenchColumn(b, bpagg.VBP)
	rec := bpagg.NewStatsCollector()
	b.SetBytes(benchN / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(col.SumContext(bg, sel, bpagg.CollectStats(rec)))
	}
}

func BenchmarkVBPScanStatsOff(b *testing.B) {
	col, _ := statsBenchColumn(b, bpagg.VBP)
	b.SetBytes(benchN / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Scan(bpagg.Less(1 << 20))
	}
}

func BenchmarkVBPScanStatsOn(b *testing.B) {
	col, _ := statsBenchColumn(b, bpagg.VBP)
	rec := bpagg.NewStatsCollector()
	b.SetBytes(benchN / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ScanStats(bpagg.Less(1<<20), rec)
	}
}
