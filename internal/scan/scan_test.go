package scan

import (
	"fmt"
	"math/rand"
	"testing"

	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func randValues(rng *rand.Rand, n, k int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() & word.LowMask(k)
	}
	return v
}

// allPredicates returns a representative predicate set for a k-bit domain,
// including boundary constants.
func allPredicates(rng *rand.Rand, k int) []Predicate {
	max := word.LowMask(k)
	consts := []uint64{0, max, max / 2, rng.Uint64() & max, rng.Uint64() & max}
	var ps []Predicate
	for _, c := range consts {
		for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
			ps = append(ps, Predicate{Op: op, A: c})
		}
	}
	lo := rng.Uint64() & max
	hi := rng.Uint64() & max
	if lo > hi {
		lo, hi = hi, lo
	}
	ps = append(ps,
		Predicate{Op: Between, A: lo, B: hi},
		Predicate{Op: Between, A: 0, B: max},
		Predicate{Op: Between, A: max, B: max},
	)
	return ps
}

func TestOpString(t *testing.T) {
	want := map[Op]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">=", Between: "BETWEEN"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op %d String = %q, want %q", int(op), op.String(), s)
		}
	}
}

func TestPredicateMatches(t *testing.T) {
	p := Predicate{Op: Between, A: 3, B: 7}
	for v, want := range map[uint64]bool{2: false, 3: true, 5: true, 7: true, 8: false} {
		if p.Matches(v) != want {
			t.Errorf("Between(3,7).Matches(%d) = %v", v, !want)
		}
	}
}

func TestVBPScanAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{1, 2, 7, 12, 25, 33, 64} {
		for _, tau := range []int{1, 4, k} {
			if tau > k {
				continue
			}
			for _, n := range []int{1, 63, 64, 65, 257} {
				vals := randValues(rng, n, k)
				col := vbp.Pack(vals, k, tau)
				for _, p := range allPredicates(rng, k) {
					bm := VBPStats(col, p, nil)
					if bm.Len() != n {
						t.Fatalf("k=%d: bitmap length %d, want %d", k, bm.Len(), n)
					}
					for i, v := range vals {
						if bm.Get(i) != p.Matches(v) {
							t.Fatalf("VBP k=%d tau=%d n=%d pred %v %d: tuple %d value %d got %v",
								k, tau, n, p.Op, p.A, i, v, bm.Get(i))
						}
					}
				}
			}
		}
	}
}

func TestHBPScanAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, k := range []int{1, 2, 7, 12, 25, 33, 64} {
		taus := []int{1, 3, 4, 7, k}
		for _, tau := range taus {
			if tau > k || tau > hbp.MaxTau {
				continue
			}
			for _, n := range []int{1, 59, 64, 65, 257} {
				vals := randValues(rng, n, k)
				col := hbp.Pack(vals, k, tau)
				for _, p := range allPredicates(rng, k) {
					bm := HBPStats(col, p, nil)
					if bm.Len() != n {
						t.Fatalf("k=%d: bitmap length %d, want %d", k, bm.Len(), n)
					}
					for i, v := range vals {
						if bm.Get(i) != p.Matches(v) {
							t.Fatalf("HBP k=%d tau=%d n=%d pred %v %d/%d: tuple %d value %d got %v",
								k, tau, n, p.Op, p.A, p.B, i, v, bm.Get(i))
						}
					}
				}
			}
		}
	}
}

func TestScanTailPadding(t *testing.T) {
	// Padding tuples are zero; a predicate matching zero must not leak set
	// bits past Len().
	vals := []uint64{5, 6, 7}
	p := Predicate{Op: LT, A: 100}
	vcol := vbp.Pack(vals, 8, 4)
	if bm := VBPStats(vcol, p, nil); bm.Count() != 3 {
		t.Errorf("VBP tail leak: count = %d, want 3", bm.Count())
	}
	hcol := hbp.Pack(vals, 8, 4)
	if bm := HBPStats(hcol, p, nil); bm.Count() != 3 {
		t.Errorf("HBP tail leak: count = %d, want 3", bm.Count())
	}
}

func TestScanConstantOutOfRangePanics(t *testing.T) {
	col := vbp.Pack([]uint64{1}, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized constant did not panic")
		}
	}()
	VBPStats(col, Predicate{Op: EQ, A: 16}, nil)
}

func TestVBPSlotCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	k := 9
	for trial := 0; trial < 100; trial++ {
		xs := randValues(rng, 64, k)
		ys := randValues(rng, 64, k)
		if trial%4 == 0 {
			copy(ys, xs) // force equal lanes
		}
		// Build raw VBP word slices (bit position p at index p).
		toWords := func(vals []uint64) []uint64 {
			ws := make([]uint64, k)
			for j, v := range vals {
				for p := 0; p < k; p++ {
					if v>>uint(k-1-p)&1 == 1 {
						ws[p] |= 1 << uint(j)
					}
				}
			}
			return ws
		}
		xw, yw := toWords(xs), toWords(ys)
		lt, eq := VBPSlotCompare(xw, yw)
		gt, eq2 := VBPSlotCompareGT(xw, yw)
		if eq != eq2 {
			t.Fatal("eq lanes disagree between LT and GT variants")
		}
		for j := 0; j < 64; j++ {
			bit := uint64(1) << uint(j)
			if (lt&bit != 0) != (xs[j] < ys[j]) {
				t.Fatalf("slot %d lt: x=%d y=%d", j, xs[j], ys[j])
			}
			if (gt&bit != 0) != (xs[j] > ys[j]) {
				t.Fatalf("slot %d gt: x=%d y=%d", j, xs[j], ys[j])
			}
			if (eq&bit != 0) != (xs[j] == ys[j]) {
				t.Fatalf("slot %d eq: x=%d y=%d", j, xs[j], ys[j])
			}
		}
	}
}

func TestHBPEqualGroupLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	col := hbp.New(8, 4)
	vals := randValues(rng, 64, 8)
	col.Append(vals...)
	// Group 0 holds the high 4 bits. Check lanes for each bin value.
	for bin := uint64(0); bin < 16; bin++ {
		w := col.Word(0, 0, 0) // sub-segment 0
		lanes := HBPEqualGroupLanes(col, w, bin)
		for s := 0; s < col.FieldsPerWord(); s++ {
			// Tuple index: sub-segment 0, slot s.
			i := s * col.SubSegments()
			if i >= len(vals) {
				break
			}
			want := vals[i]>>4 == bin
			bit := uint64(1) << uint(s*col.FieldWidth()+col.Tau())
			if (lanes&bit != 0) != want {
				t.Fatalf("bin %d slot %d: value %d got %v", bin, s, vals[i], lanes&bit != 0)
			}
		}
	}
}

func TestScanSelectivityControl(t *testing.T) {
	// A LT-constant scan over uniform data should hit close to the target
	// selectivity — this is the generator contract the experiments rely on.
	rng := rand.New(rand.NewSource(35))
	k, n := 20, 1<<15
	vals := randValues(rng, n, k)
	col := vbp.Pack(vals, k, 4)
	cut := uint64(float64(word.LowMask(k)) * 0.3)
	bm := VBPStats(col, Predicate{Op: LT, A: cut}, nil)
	got := float64(bm.Count()) / float64(n)
	if got < 0.28 || got > 0.32 {
		t.Errorf("selectivity %f, want ~0.30", got)
	}
}

func BenchmarkVBPScanLT(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	vals := randValues(rng, 1<<16, 25)
	col := vbp.Pack(vals, 25, 4)
	p := Predicate{Op: LT, A: 1 << 20}
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = VBPStats(col, p, nil)
	}
}

func BenchmarkHBPScanLT(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	vals := randValues(rng, 1<<16, 25)
	col := hbp.Pack(vals, 25, hbp.DefaultTau(25))
	p := Predicate{Op: LT, A: 1 << 20}
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HBPStats(col, p, nil)
	}
}

// BenchmarkScanOps reports the scan kernels' cost model per (layout,
// groups, operator, selectivity): ns per packed word compared, and words
// compared per row (the early stop's effect; identical across kernel
// implementations by the counter pin). 12-bit values in 1, 2 or 3
// bit-groups; range constants sit at the target selectivity of the
// uniform column, and = / <> run on a copy with a hot value planted at
// that share of the rows.
func BenchmarkScanOps(b *testing.B) {
	const k, n = 12, 1 << 18
	rng := rand.New(rand.NewSource(38))
	uniform := randValues(rng, n, k)
	const hot = 1234
	planted := func(pct int) []uint64 {
		vals := append([]uint64(nil), uniform...)
		for i := range vals {
			if rng.Intn(100) < pct {
				vals[i] = hot
			}
		}
		return vals
	}
	type opCase struct {
		name string
		vals []uint64
		p    Predicate
	}
	var cases []opCase
	for _, pct := range []int{1, 50, 90} {
		sel := fmt.Sprintf("sel=%d", pct)
		cut := uint64(pct) << k / 100
		cases = append(cases,
			opCase{"=/" + sel, planted(pct), Predicate{Op: EQ, A: hot}},
			opCase{"<>/" + sel, planted(100 - pct), Predicate{Op: NE, A: hot}},
			opCase{"</" + sel, uniform, Predicate{Op: LT, A: cut}},
			opCase{"<=/" + sel, uniform, Predicate{Op: LE, A: cut - 1}},
			opCase{">/" + sel, uniform, Predicate{Op: GT, A: 1<<k - 1 - cut}},
			opCase{">=/" + sel, uniform, Predicate{Op: GE, A: 1<<k - cut}},
			opCase{"BETWEEN/" + sel, uniform, Predicate{Op: Between, A: 1 << (k - 4), B: 1<<(k-4) + cut - 1}},
		)
	}
	for groups := 1; groups <= 3; groups++ {
		tau := k / groups
		for _, c := range cases {
			run := func(layout string, scan func(es *metrics.ExecStats)) {
				b.Run(fmt.Sprintf("%s/g=%d/%s", layout, groups, c.name), func(b *testing.B) {
					var es metrics.ExecStats
					scan(&es)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						scan(nil)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(es.WordsCompared), "ns/word")
					b.ReportMetric(float64(es.WordsCompared)/n, "words/row")
				})
			}
			vcol := vbp.Pack(c.vals, k, tau)
			run("VBP", func(es *metrics.ExecStats) { VBPStats(vcol, c.p, es) })
			hcol := hbp.Pack(c.vals, k, tau)
			run("HBP", func(es *metrics.ExecStats) { HBPStats(hcol, c.p, es) })
		}
	}
}
