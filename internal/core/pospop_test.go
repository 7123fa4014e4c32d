package core

import (
	"math/big"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// The carry-save accumulators must be invisible: every routed kernel
// agrees with a big.Int scalar loop over the plain values. Columns
// deliberately end mid-block (n not a multiple of 8·64) so partial
// trailing blocks and the run drains are always exercised.

func TestPosPopSumMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 7, 25, 40, 63, 64} {
		for _, n := range []int{1, 64, 127, 64*8 + 1, 977, 64 * 21} {
			vals := make([]uint64, n)
			f := bitvec.New(n)
			want := new(big.Int)
			for i := range vals {
				vals[i] = rng.Uint64() & word.LowMask(k)
				if rng.Intn(3) != 0 {
					f.Set(i)
					want.Add(want, new(big.Int).SetUint64(vals[i]))
				}
			}
			tau := 4
			if tau > k {
				tau = k
			}
			col := vbp.Pack(vals, k, tau)
			nseg := col.NumSegments()

			if got := VBPSum(col, f); !SumOverflowPossible(k, n) && want.Uint64() != got {
				t.Fatalf("k=%d n=%d: VBPSum %d, big.Int %s", k, n, got, want)
			}
			if hi, lo, cnt := VBPSumCount(col, Bits(f), 0, nseg, &FusedStats{}); big128(hi, lo).Cmp(want) != 0 || cnt != uint64(f.Count()) {
				t.Fatalf("k=%d n=%d: VBPSumCount (%s, %d), big.Int (%s, %d)", k, n, big128(hi, lo), cnt, want, f.Count())
			}
		}
	}
}

func TestPosPopFusedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const k, n = 25, 64*13 + 17
	// Sorted values give the predicate zones real pruning/all-match
	// decisions, so the cache-served route and mid-stream continues hit.
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
	}
	for _, sorted := range []bool{false, true} {
		if sorted {
			for i := 1; i < n; i++ {
				if vals[i] < vals[i-1] {
					vals[i], vals[i-1] = vals[i-1], vals[i]
				}
			}
		}
		col := vbp.Pack(vals, k, 4)
		cut := word.LowMask(k) / 3 * 2
		preds := []scan.WindowPred{scan.NewVBPWindowPred(col, scan.Predicate{Op: scan.LT, A: cut})}
		want := new(big.Int)
		var wantCnt uint64
		for _, v := range vals {
			if v < cut {
				want.Add(want, new(big.Int).SetUint64(v))
				wantCnt++
			}
		}

		var st FusedStats
		if sum, cnt := VBPFusedSumCount(col, preds, 0, col.NumSegments(), &st); sum != want.Uint64() || cnt != wantCnt {
			t.Fatalf("sorted=%v: fused (%d,%d), scalar (%s,%d)", sorted, sum, cnt, want, wantCnt)
		}
		if hi, lo, cnt := VBPSumCount(col, Preds(preds), 0, col.NumSegments(), &st); big128(hi, lo).Cmp(want) != 0 || cnt != wantCnt {
			t.Fatalf("sorted=%v: fused 128-bit (%s,%d), scalar (%s,%d)", sorted, big128(hi, lo), cnt, want, wantCnt)
		}
		if cnt := VBPFusedCount(col, preds, 0, col.NumSegments(), &st); cnt != wantCnt {
			t.Fatalf("sorted=%v: fused count %d, want %d", sorted, cnt, wantCnt)
		}
	}
}

// TestPosPopGroupSumMatchesScalar drives the banked SUM kernel over a run
// list built from per-group selections: single-live-group runs (sorted
// group assignment), group changes, and interleaved multi-group segments,
// comparing against big.Int.
func TestPosPopGroupSumMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const k, n, G = 30, 64*19 + 31, 5
	vals := make([]uint64, n)
	gis := make([]int, n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
		switch {
		case i < n/2:
			gis[i] = i * G / n // long sorted runs → run accumulator
		default:
			gis[i] = rng.Intn(G) // scattered → multi-live segments
		}
	}
	col := vbp.Pack(vals, k, 4)
	sels := make([]*bitvec.Bitmap, G)
	for g := range sels {
		sels[g] = bitvec.New(n)
	}
	want := make([]*big.Int, G)
	for g := range want {
		want[g] = new(big.Int)
	}
	for i, v := range vals {
		if rng.Intn(8) == 0 {
			continue // holes keep some groups dead per segment
		}
		sels[gis[i]].Set(i)
		want[gis[i]].Add(want[gis[i]], new(big.Int).SetUint64(v))
	}
	se := NewRuns[int32](0, 0)
	for seg := 0; seg < col.NumSegments(); seg++ {
		for g, sel := range sels {
			if w := sel.Word(seg); w != 0 {
				se.Merge(int32(seg), []int32{int32(g)}, []uint64{w})
			}
		}
	}

	his := make([]uint64, G)
	los := make([]uint64, G)
	var st GroupStats
	cur := NewCursor(se, 64, 64, 0, col.NumSegments(), nil)
	NewHashKernel(col, nil).Sum(&cur, his, los, &st)
	for g := 0; g < G; g++ {
		if big128(his[g], los[g]).Cmp(want[g]) != 0 {
			t.Fatalf("group %d: banked %s, big.Int %s", g, big128(his[g], los[g]), want[g])
		}
	}
}

// TestPosPopHashSumRunsMatchesScalar builds a run list mixing single-entry runs
// (long same-group stretches and group flips, which exercise the drain)
// with multi-entry runs, on both the k ≤ 57 and the wide entry paths.
func TestPosPopHashSumRunsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{25, 61} {
		const nseg, G = 37, 6
		vals := make([]uint64, nseg*64)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(k)
		}
		col := vbp.Pack(vals, k, 4)
		se := &SegEntries{Start: []int32{0}}
		want := make([]*big.Int, G)
		for g := range want {
			want[g] = new(big.Int)
		}
		for seg := 0; seg < nseg; seg++ {
			var ents int
			switch seg % 5 {
			case 0, 1, 2: // single-entry runs, group changes every few segs
				gi := int32(seg / 3 % G)
				w := rng.Uint64()
				if seg%7 == 0 {
					w = word.LowMask(64) // whole-segment word (cache-serve shape)
				}
				se.ID = append(se.ID, gi)
				se.W = append(se.W, w)
				for j := 0; j < 64; j++ {
					if w>>uint(j)&1 == 1 {
						want[gi].Add(want[gi], new(big.Int).SetUint64(vals[seg*64+j]))
					}
				}
				ents = 1
			case 3: // dead segment
				continue
			default: // multi-entry run with disjoint words
				lo := rng.Uint64()
				for e, gi := range []int32{1, 4} {
					w := lo
					if e == 1 {
						w = ^lo
					}
					se.ID = append(se.ID, gi)
					se.W = append(se.W, w)
					for j := 0; j < 64; j++ {
						if w>>uint(j)&1 == 1 {
							want[gi].Add(want[gi], new(big.Int).SetUint64(vals[seg*64+j]))
						}
					}
				}
				ents = 2
			}
			se.Segs = append(se.Segs, int32(seg))
			se.Start = append(se.Start, se.Start[len(se.Start)-1]+int32(ents))
		}

		his := make([]uint64, G)
		los := make([]uint64, G)
		var st GroupStats
		cur := NewCursor(se, 64, 64, 0, col.NumSegments(), nil)
		NewHashKernel(col, nil).Sum(&cur, his, los, &st)
		for g := 0; g < G; g++ {
			if big128(his[g], los[g]).Cmp(want[g]) != 0 {
				t.Fatalf("k=%d group %d: hashed %s, big.Int %s", k, g, big128(his[g], los[g]), want[g])
			}
		}
	}
}
