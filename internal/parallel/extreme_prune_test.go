package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Bound-pruned MIN/MAX against a naive oracle. The MIN/MAX kernels skip a
// window whose zone cannot beat the extreme its prune block has already
// selected; the answer must stay the naive one, and because the threshold
// restarts at every block and the driver hands out whole blocks, every
// counter must be the same at Threads 1, 2 and 8.

// The data shapes of FuzzExtremePrune.
const (
	pruneAscending = iota
	pruneDescending
	pruneConstant
	pruneClustered
	pruneUniform
	pruneLastWindow // the block's only extreme sits in its last window
	pruneShapes
)

// FuzzExtremePrune: shape picks the data; flags bit 0 picks HBP, bit 1
// adopts widened zones the way a reader does (SetZones: sound, not exact,
// segment caches off), bit 2 makes every fifth row NULL (stored as 0,
// never selected) and bits 3–4 pick the selection density; rows is cut to
// at most three prune blocks plus a partial segment. Each case runs MIN
// and MAX fed the selection bitmap and fed a predicate on a selector
// column that is 1 exactly on the selected rows.
func FuzzExtremePrune(f *testing.F) {
	block := uint32(core.PruneBlock * 64)
	for _, s := range []struct {
		shape, flags, k uint8
		rows            uint32
		seed            int64
	}{
		{pruneAscending, 0, 20, 3*block + 37, 1},
		{pruneDescending, 0, 20, 2*block + 5, 2},
		{pruneConstant, 1, 12, 2*block + 64, 3},
		{pruneClustered, 0 | 1<<3, 16, 3*block + 1, 4},
		{pruneUniform, 0, 20, 3*block + 100, 5},
		{pruneUniform, 1 | 2<<3, 14, 3*block + 63, 6},
		{pruneLastWindow, 0, 20, 3*block + 17, 7},
		{pruneLastWindow, 1, 14, 2*block + 200, 8},
		{pruneUniform, 4, 20, 2*block + 9, 9},
		{pruneClustered, 5 | 1<<3, 10, 2*block + 31, 10},
		{pruneUniform, 2, 20, 3*block + 3, 11},
		{pruneAscending, 3, 14, 2*block + 130, 12},
		{pruneUniform, 0 | 3<<3, 20, 1000, 13},
		{pruneDescending, 1 | 4 | 1<<3, 8, 517, 14},
	} {
		f.Add(s.shape, s.flags, s.k, s.rows, s.seed)
	}
	f.Fuzz(func(t *testing.T, shape, flags, kIn uint8, rowsIn uint32, seed int64) {
		k := 1 + int(kIn)%24
		n := 1 + int(rowsIn%(3*block+100))
		isHBP, adopt, nulls := flags&1 != 0, flags&2 != 0, flags&4 != 0
		density := []float64{1, 0.9, 0.5, 0.02}[flags>>3&3]
		rng := rand.New(rand.NewSource(seed))
		vals := pruneData(rng, int(shape)%pruneShapes, n, k, isHBP)
		sel, flagVals := bitvec.New(n), make([]uint64, n)
		for i := range vals {
			if nulls && i%5 == 2 {
				vals[i] = 0 // a NULL row's stored code: in the zones, never selected
				continue
			}
			if density >= 1 || rng.Float64() < density {
				sel.Set(i)
				flagVals[i] = 1
			}
		}
		one := scan.Predicate{Op: scan.EQ, A: 1}
		var (
			vcol  *vbp.Column
			hcol  *hbp.Column
			preds []scan.WindowPred
		)
		if isHBP {
			tau := hbp.DefaultTau(k)
			hcol = hbp.Pack(vals, k, tau)
			preds = []scan.WindowPred{scan.NewHBPWindowPred(hbp.Pack(flagVals, tau, tau), one)}
			if adopt {
				lo, hi := hcol.Zones()
				if err := hcol.SetZones(widenZones(rng, lo, hi, k)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			vcol = vbp.Pack(vals, k, 4)
			preds = []scan.WindowPred{scan.NewVBPWindowPred(vbp.Pack(flagVals, 1, 1), one)}
			if adopt {
				lo, hi := vcol.Zones()
				if err := vcol.SetZones(widenZones(rng, lo, hi, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, wantMin := range []bool{true, false} {
			want, wantOK := naiveExtreme(vals, sel, wantMin)
			for _, src := range []struct {
				name string
				f    core.Filter
			}{{"bitmap", core.Bits(sel)}, {"preds", core.Preds(preds)}} {
				var base metrics.ExecStats
				for _, threads := range []int{1, 2, 8} {
					rec := metrics.NewCollector()
					o := Options{Threads: threads, Stats: rec}
					var v, cnt uint64
					var err error
					if isHBP {
						v, cnt, err = HBPExtremeFilterCtx(context.Background(), hcol, src.f, o, wantMin)
					} else {
						v, cnt, err = VBPExtremeFilterCtx(context.Background(), vcol, src.f, o, wantMin)
					}
					cell := fmt.Sprintf("min=%v %s threads=%d (shape %d, k=%d, n=%d, hbp=%v, adopted=%v, nulls=%v, density=%v)",
						wantMin, src.name, threads, int(shape)%pruneShapes, k, n, isHBP, adopt, nulls, density)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if cnt > 0 != wantOK || wantOK && v != want {
						t.Fatalf("%s: got (%d, cnt %d), want (%d, %v)", cell, v, cnt, want, wantOK)
					}
					st := rec.Snapshot()
					st.ScanNanos, st.AggNanos, st.WorkerBusyNanos = 0, 0, 0
					if threads == 1 {
						base = st
					} else if st != base {
						t.Fatalf("%s: counters %+v, at Threads=1 %+v", cell, st, base)
					}
				}
			}
		}
	})
}

// pruneData builds n k-bit values of the given shape.
func pruneData(rng *rand.Rand, shape, n, k int, isHBP bool) []uint64 {
	mask := word.LowMask(k)
	vals := make([]uint64, n)
	for i := range vals {
		switch shape {
		case pruneAscending:
			vals[i] = uint64(float64(i) / float64(n) * float64(mask))
		case pruneDescending:
			vals[i] = mask - uint64(float64(i)/float64(n)*float64(mask))
		case pruneConstant:
			vals[i] = mask / 3
		case pruneClustered:
			if i%4096 == 0 {
				vals[i] = rng.Uint64() & mask
			} else {
				vals[i] = min(mask, vals[i-1]&^7|rng.Uint64()&7)
			}
		case pruneUniform:
			vals[i] = rng.Uint64() & mask
		case pruneLastWindow:
			// Mid-range values everywhere; each prune block's least and
			// greatest value sit in its last window only.
			vals[i] = mask/4 + rng.Uint64()%(mask/2+1)
		}
	}
	if shape == pruneLastWindow {
		vps := 64
		if isHBP {
			f := hbp.DefaultTau(k) + 1 // a field with its delimiter
			vps = 64 / f * f
		}
		for b := 0; ; b++ {
			row := ((b+1)*core.PruneBlock - 1) * vps
			if row+vps > n {
				break
			}
			vals[row+rng.Intn(vps/2)] = mask / 8
			vals[row+vps/2+rng.Intn(vps/2)] = mask - mask/8
		}
	}
	return vals
}

// widenZones returns the zones lo/hi widened by a random margin within k
// bits: sound bounds that are not the segments' exact extremes.
func widenZones(rng *rand.Rand, lo, hi []uint64, k int) ([]uint64, []uint64) {
	mask := word.LowMask(k)
	wlo, whi := make([]uint64, len(lo)), make([]uint64, len(hi))
	for i := range lo {
		d := rng.Uint64() % (mask/16 + 1)
		wlo[i] = lo[i] - min(lo[i], d)
		whi[i] = hi[i] + min(mask-hi[i], d)
	}
	return wlo, whi
}

// naiveExtreme is MIN (wantMin) or MAX of the selected values.
func naiveExtreme(vals []uint64, sel *bitvec.Bitmap, wantMin bool) (uint64, bool) {
	var v uint64
	ok := false
	for i, x := range vals {
		if sel.Get(i) && (!ok || wantMin && x < v || !wantMin && x > v) {
			v, ok = x, true
		}
	}
	return v, ok
}
