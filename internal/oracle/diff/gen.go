package diff

import (
	"fmt"
	"math/rand"
	"sort"

	"bpagg"
	"bpagg/internal/oracle"
	"bpagg/internal/word"
)

// GenConfig parameterizes the adversarial case generator. Seed makes a
// run reproducible (a failing case's name plus the seed replays it);
// Deep widens every axis — the nightly oracle-soak profile — while the
// default profile keeps the PR-gating sweep under the 30s budget.
type GenConfig struct {
	Seed int64
	Deep bool
}

// Cases generates the differential scenarios for one seed: a sweep over
// layouts × bit widths × τ × table sizes × data patterns × predicate
// forms, plus hand-crafted adversaries (NULLs, fused conjunctions,
// GROUP BY, overflow shapes, mid-segment appends over warm caches).
func Cases(cfg GenConfig) []Case {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Case

	// k=31 is the HBP τ cap, k=59 the first width past the zSum cache
	// trust boundary (k ≤ 58), 63/64 the overflow widths.
	ks := []int{1, 8, 31, 59, 63, 64}
	if cfg.Deep {
		ks = append(ks, 2, 3, 4, 5, 6, 7, 12, 16, 17, 24, 32, 33, 40, 48, 57, 58, 60, 61, 62)
	}
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		for _, k := range ks {
			for _, tau := range taus(layout, k, cfg.Deep) {
				for _, n := range sizes(rng, cfg.Deep) {
					for _, pat := range pickPatterns(rng, k, cfg.Deep) {
						vals := genValues(rng, pat, n, k)
						battery := predBattery(rng, vals, k)
						for _, pi := range pickPreds(rng, len(battery), cfg.Deep) {
							c := Case{
								Name: fmt.Sprintf("%s-k%d-tau%d-n%d-%s-p%d-s%d",
									layout, k, tau, n, pat, pi, cfg.Seed),
								Layout:    layout,
								K:         k,
								Tau:       tau,
								A:         vals,
								Preds:     battery[pi],
								RowAppend: rng.Intn(2) == 0,
							}
							// A third of the cases append a short tail after
							// the cache treatment: mid-segment appends over
							// warm (rebuilt/reloaded) caches.
							if rng.Intn(3) == 0 {
								c.ExtraA = genValues(rng, pat, 1+rng.Intn(70), k)
								c.Name += "-extra"
							}
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	out = append(out, craftedCases(rng, cfg)...)
	return out
}

// taus picks the bit-group sizes to sweep for a layout/width. The soak
// profile sweeps the full legal range τ∈{1..k} (HBP capped at 31); the
// short profile hits 1, the library default, and the cap.
func taus(layout bpagg.Layout, k int, deep bool) []int {
	maxTau := k
	if layout == bpagg.HBP && maxTau > 31 {
		maxTau = 31
	}
	if deep {
		// Dense at the low end (each small τ is a distinct group
		// geometry), strided above, and both values at the cap.
		set := map[int]bool{0: true, maxTau: true, maxTau - 1: true}
		for t := 1; t <= maxTau && t <= 6; t++ {
			set[t] = true
		}
		for t := 11; t < maxTau; t += 5 {
			set[t] = true
		}
		var ts []int
		for t := 0; t <= maxTau; t++ {
			if set[t] {
				ts = append(ts, t)
			}
		}
		return ts
	}
	set := map[int]bool{0: true, 1: true, maxTau: true}
	var ts []int
	for t := 0; t <= maxTau; t++ {
		if set[t] {
			ts = append(ts, t)
		}
	}
	return ts
}

// sizes picks table lengths: always one tiny table (empty or single
// value), one segment boundary (63/64/65 — exact 64-value segments and
// partial tails), and one multi-segment length. The soak profile samples
// each bucket from a wider pool (incl. larger tables) rather than
// exhausting it — the breadth comes from running many seeds.
func sizes(rng *rand.Rand, deep bool) []int {
	if deep {
		return []int{
			[]int{0, 1, 2}[rng.Intn(3)],
			[]int{63, 64, 65, 66}[rng.Intn(4)],
			[]int{127, 128, 129, 191, 192, 200}[rng.Intn(6)],
			[]int{256, 320, 511, 600 + rng.Intn(400)}[rng.Intn(4)],
		}
	}
	return []int{
		[]int{0, 1}[rng.Intn(2)],
		[]int{63, 64, 65}[rng.Intn(3)],
		[]int{127, 129, 200}[rng.Intn(3)],
	}
}

var allPatterns = []string{"uniform", "sorted", "rev", "const0", "constmax", "duo", "nearmax", "small"}

// pickPatterns selects data distributions. Near-max data is always in
// play for wide columns, where SUM overflow hides.
func pickPatterns(rng *rand.Rand, k int, deep bool) []string {
	pats := []string{"uniform", allPatterns[1+rng.Intn(len(allPatterns)-1)]}
	if deep {
		for len(pats) < 3 {
			p := allPatterns[1+rng.Intn(len(allPatterns)-1)]
			if p != pats[1] {
				pats = append(pats, p)
			}
		}
	}
	if k >= 59 && pats[1] != "nearmax" && pats[1] != "constmax" {
		pats = append(pats, "nearmax")
	}
	return pats
}

func genValues(rng *rand.Rand, pat string, n, k int) []uint64 {
	max := word.LowMask(k)
	vals := make([]uint64, n)
	switch pat {
	case "uniform":
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
	case "sorted", "rev":
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if pat == "rev" {
			for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	case "const0":
		// already zero
	case "constmax":
		for i := range vals {
			vals[i] = max
		}
	case "duo":
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = max
			}
		}
	case "nearmax":
		for i := range vals {
			d := uint64(rng.Intn(3))
			if d > max {
				d = max
			}
			vals[i] = max - d
		}
	case "small":
		for i := range vals {
			vals[i] = uint64(rng.Intn(4)) & max
		}
	default:
		panic("diff: unknown pattern " + pat)
	}
	return vals
}

// predBattery builds the predicate forms for one data set, with
// constants drawn from the data so selectivities vary: all-match (the
// cache-served fused path), none-match, every comparison operator,
// degenerate and inverted BETWEEN, IN-lists (including empty), and the
// zero-clause query.
func predBattery(rng *rand.Rand, vals []uint64, k int) [][]PredSpec {
	max := word.LowMask(k)
	v1, v2 := max/2, max/2+max/4
	if len(vals) > 0 {
		v1 = vals[rng.Intn(len(vals))]
		v2 = vals[rng.Intn(len(vals))]
	}
	lo, hi := v1, v2
	if lo > hi {
		lo, hi = hi, lo
	}
	one := func(p oracle.Pred) []PredSpec { return []PredSpec{{Col: "a", Pred: p}} }
	battery := [][]PredSpec{
		one(oracle.Pred{Op: oracle.LE, A: max}), // all-match
		one(oracle.Pred{Op: oracle.GT, A: max}), // none-match
		one(oracle.Pred{Op: oracle.GE, A: v1}),
		one(oracle.Pred{Op: oracle.LT, A: v2}),
		one(oracle.Pred{Op: oracle.LE, A: v1}),
		one(oracle.Pred{Op: oracle.EQ, A: v1}),
		one(oracle.Pred{Op: oracle.NE, A: v1}),
		one(oracle.Pred{Op: oracle.Between, A: lo, B: hi}),
		one(oracle.Pred{Op: oracle.Between, A: v1, B: v1}), // degenerate
		one(oracle.Pred{Op: oracle.In, List: []uint64{v1, v2, max}}),
		one(oracle.Pred{Op: oracle.In, List: nil}), // empty IN: matches nothing
		nil, // zero-clause query: all rows, never fused
	}
	if hi > lo {
		battery = append(battery, one(oracle.Pred{Op: oracle.Between, A: hi, B: lo})) // inverted: empty
	}
	return battery
}

// pickPreds selects which battery entries a table exercises: always the
// all-match entry (per-segment cache path) plus a sample of the rest —
// two more in the short profile, four more in the soak profile.
func pickPreds(rng *rand.Rand, n int, deep bool) []int {
	keep := 3
	if deep {
		keep = 5
	}
	idx := []int{0}
	for _, p := range rng.Perm(n - 1) {
		if len(idx) == keep {
			break
		}
		idx = append(idx, p+1)
	}
	return idx
}

// craftedCases are hand-built adversaries that the sweep's axes don't
// reach: NULLs, multi-column fused conjunctions, GROUP BY (including
// all-NULL groups and per-group overflow), and exact overflow shapes.
func craftedCases(rng *rand.Rand, cfg GenConfig) []Case {
	var out []Case
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		l := layout.String()

		// NULL handling: scattered NULLs, an all-NULL column, NULLs with
		// no predicate.
		n := 130
		vals := genValues(rng, "uniform", n, 16)
		nulls := make([]bool, n)
		for i := range nulls {
			nulls[i] = rng.Intn(5) == 0
		}
		v1 := vals[rng.Intn(n)]
		out = append(out,
			Case{Name: l + "-nulls-ge", Layout: layout, K: 16, A: vals, ANulls: nulls,
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: v1}}}},
			Case{Name: l + "-nulls-nopred", Layout: layout, K: 16, A: vals, ANulls: nulls},
			Case{Name: l + "-allnull", Layout: layout, K: 8, A: make([]uint64, 70),
				ANulls: allTrue(70),
				Preds:  []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.LE, A: 255}}}},
		)

		// Fused two-clause conjunction on same-width columns; the wide
		// variant overflows under the conjunction.
		b := genValues(rng, "uniform", n, 16)
		out = append(out, Case{
			Name: l + "-conj", Layout: layout, K: 16, A: vals, B: b,
			Preds: []PredSpec{
				{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: v1}},
				{Col: "b", Pred: oracle.Pred{Op: oracle.LE, A: b[rng.Intn(n)]}},
			},
		})
		wa := genValues(rng, "nearmax", n, 63)
		wb := genValues(rng, "uniform", n, 63)
		out = append(out, Case{
			Name: l + "-conj-overflow", Layout: layout, K: 63, A: wa, B: wb,
			Preds: []PredSpec{
				{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: 1}},
				{Col: "b", Pred: oracle.Pred{Op: oracle.LE, A: word.LowMask(63)}},
			},
		})

		// GROUP BY: low-cardinality keys; one variant with NULLs dense
		// enough that some group may lose every aggregate row, one with
		// per-group overflow.
		g := genValues(rng, "small", n, 16)
		out = append(out, Case{
			Name: l + "-groupby", Layout: layout, K: 16, A: vals, G: g,
			Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: v1}}},
		})
		densNulls := make([]bool, n)
		for i := range densNulls {
			densNulls[i] = rng.Intn(2) == 0
		}
		out = append(out, Case{
			Name: l + "-groupby-nulls", Layout: layout, K: 16, A: vals, ANulls: densNulls, G: g,
		})
		out = append(out, Case{
			Name: l + "-groupby-overflow", Layout: layout, K: 64,
			A: genValues(rng, "nearmax", n, 64), G: genValues(rng, "duo", n, 64),
		})

		// Multi-column GROUP BY: composite (g, g2) keys with mixed widths —
		// one narrow pair that packs into the direct index's 10 bits, one
		// wider pair that hashes, and an appended-tail variant.
		g2 := genValues(rng, "small", n, 16)
		wideG := genValues(rng, "uniform", n, 7)
		out = append(out,
			Case{Name: l + "-groupby-multi", Layout: layout, K: 16, GK: 4, G2K: 4,
				A: vals, G: g, G2: g2,
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: v1}}}},
			Case{Name: l + "-groupby-multi-hash", Layout: layout, K: 16, GK: 7, G2K: 7,
				A: vals, G: wideG, G2: genValues(rng, "uniform", n, 7)},
			Case{Name: l + "-groupby-multi-extra", Layout: layout, K: 16, GK: 4, G2K: 4,
				A: vals, G: g, G2: g2,
				ExtraA: genValues(rng, "uniform", 37, 16),
				ExtraG: genValues(rng, "small", 37, 16), ExtraG2: genValues(rng, "small", 37, 16)},
		)

		// NULLs in the grouping column itself: those rows belong to no
		// group.
		gNulls := make([]bool, n)
		for i := range gNulls {
			gNulls[i] = rng.Intn(4) == 0
		}
		out = append(out, Case{
			Name: l + "-groupby-gnulls", Layout: layout, K: 16, A: vals, G: g, GNulls: gNulls,
		})

		// Exact overflow boundaries: the largest sums that still fit and
		// the smallest that don't, around full and partial segments.
		out = append(out,
			Case{Name: l + "-sum-wrap-64", Layout: layout, K: 64,
				A:     []uint64{word.LowMask(64), 1},
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: 0}}}},
			Case{Name: l + "-sum-fit-64", Layout: layout, K: 64,
				A:     []uint64{word.LowMask(64), 0},
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: 0}}}},
			Case{Name: l + "-sum-wrap-tail", Layout: layout, K: 64,
				A: genValues(rng, "constmax", 65, 64)},
			Case{Name: l + "-sum-wrap-afterappend", Layout: layout, K: 62,
				A: genValues(rng, "constmax", 60, 62), ExtraA: genValues(rng, "constmax", 10, 62)},
		)

		// τ at its cap with an exactly-full segment and an all-match
		// predicate: the cache-served fused path with no tail.
		kCap := 64
		tCap := 64
		if layout == bpagg.HBP {
			tCap = 31
		}
		out = append(out, Case{
			Name: l + "-tau-cap-full-seg", Layout: layout, K: kCap, Tau: tCap,
			A:     genValues(rng, "uniform", 64, kCap),
			Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.LE, A: word.LowMask(kCap)}}},
		})
	}
	// GROUP BY over a key packed in the other layout, so the measure's
	// windows and the key's disagree (64 values against 63): a VBP measure
	// under an HBP key and the reverse, with and without measure NULLs. Drawn
	// from a stream of their own, so the cases above keep their data.
	flip := rand.New(rand.NewSource(cfg.Seed + 1<<33))
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		const n = 200
		vals, keys, nulls := genValues(flip, "uniform", n, 16), make([]uint64, n), make([]bool, n)
		for i := range keys {
			keys[i] = uint64(flip.Intn(9)) * 455 // 9 codes spread over the 12-bit key
			nulls[i] = flip.Intn(3) == 0
		}
		out = append(out,
			Case{Name: layout.String() + "-groupby-flipkeys", Layout: layout, K: 16, GK: 12, FlipKeys: true, A: vals, G: keys},
			Case{Name: layout.String() + "-groupby-flipkeys-nulls", Layout: layout, K: 16, GK: 12, FlipKeys: true, A: vals, ANulls: nulls, G: keys,
				Preds: []PredSpec{{Col: "g", Pred: oracle.Pred{Op: oracle.LE, A: 7 * 455}}}},
		)
	}
	for i := range out {
		out[i].Name += fmt.Sprintf("-s%d", cfg.Seed)
	}
	return out
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}
