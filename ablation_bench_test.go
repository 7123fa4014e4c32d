// Ablation benchmarks for the design choices behind the layouts (DESIGN.md
// §5): the bit-group size tau, the word-group cache optimization of §II-C,
// and the aligned-segment fast path. These have no counterpart figure in
// the paper (the authors fix tau analytically, per footnote 4) but justify
// the defaults this implementation ships.

package bpagg_test

import (
	"bpagg"

	"fmt"
	"math/rand"
	"testing"
)

// ablationColumn builds one shared value set packed under a specific tau.
func ablationColumn(layout bpagg.Layout, k, tau int) *bpagg.Column {
	rng := rand.New(rand.NewSource(5))
	vals := make([]uint64, 1<<19)
	for i := range vals {
		vals[i] = rng.Uint64() & ((1 << uint(k)) - 1)
	}
	return bpagg.FromValues(layout, k, vals, bpagg.WithGroupBits(tau))
}

// BenchmarkAblationTauHBP sweeps the HBP bit-group size for a 25-bit
// column. tau=25 is the basic Figure 3 format (no bit-groups); the default
// chosen by DefaultTau(25) is 7. SUM cost tracks B/c (words touched per
// value) plus the per-word fold constant; MEDIAN additionally pays one
// histogram round per ceil(k/tau) groups.
func BenchmarkAblationTauHBP(b *testing.B) {
	const k = 25
	for _, tau := range []int{1, 3, 4, 7, 12, 15, 25} {
		col := ablationColumn(bpagg.HBP, k, tau)
		sel := col.Scan(bpagg.Less(1 << 24))
		b.Run(fmt.Sprintf("SUM/tau=%d", tau), func(b *testing.B) {
			benchOp(b, col.Len(), func() { must(col.SumContext(bg, sel)) })
		})
		b.Run(fmt.Sprintf("MEDIAN/tau=%d", tau), func(b *testing.B) {
			benchOp(b, col.Len(), func() { must2(col.MedianContext(bg, sel)) })
		})
	}
}

// BenchmarkAblationTauVBPScan sweeps the VBP bit-group size under a highly
// selective equality scan — the case §II-C's word-groups exist for: once a
// group decides every tuple of a segment, the remaining groups' cache
// lines are never touched. Small tau stops earlier per group but splits k
// bits across more groups.
func BenchmarkAblationTauVBPScan(b *testing.B) {
	const k = 25
	for _, tau := range []int{1, 2, 4, 8, 25} {
		col := ablationColumn(bpagg.VBP, k, tau)
		b.Run(fmt.Sprintf("EQ/tau=%d", tau), func(b *testing.B) {
			benchOp(b, col.Len(), func() { col.Scan(bpagg.Equal(12345)) })
		})
	}
}

// BenchmarkAblationAlignedSegments compares an HBP tau whose field width
// divides 64 (tau=7: segments hold exactly 64 tuples, filter windows are
// aligned words) against a neighbor with the same words-per-value ratio
// but unaligned 60-tuple segments (tau=5).
func BenchmarkAblationAlignedSegments(b *testing.B) {
	const k = 25
	for _, tau := range []int{5, 7} {
		col := ablationColumn(bpagg.HBP, k, tau)
		sel := col.Scan(bpagg.Less(1 << 24))
		b.Run(fmt.Sprintf("SUM/tau=%d", tau), func(b *testing.B) {
			benchOp(b, col.Len(), func() { must(col.SumContext(bg, sel)) })
		})
	}
}

// BenchmarkAblationEarlyStop isolates the early-stopping advantage the
// paper credits MIN/MAX for (Figure 5 discussion): under a sparse filter,
// the staged comparison and the md==0 sub-segment skip leave most memory
// untouched, while SUM must still visit every word that holds a selected
// tuple.
func BenchmarkAblationEarlyStop(b *testing.B) {
	const k = 25
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		col := ablationColumn(layout, k, 0b0) // 0 -> layout default
		for _, sel := range []struct {
			name string
			bm   *bpagg.Bitmap
		}{
			{"sparse", col.Scan(bpagg.Less(1 << 18))}, // ~0.8% of rows
			{"dense", col.Scan(bpagg.Less(1 << 24))},  // ~50% of rows
		} {
			b.Run(fmt.Sprintf("%v/MIN/%s", layout, sel.name), func(b *testing.B) {
				benchOp(b, col.Len(), func() { must2(col.MinContext(bg, sel.bm)) })
			})
			b.Run(fmt.Sprintf("%v/SUM/%s", layout, sel.name), func(b *testing.B) {
				benchOp(b, col.Len(), func() { must(col.SumContext(bg, sel.bm)) })
			})
		}
	}
}
