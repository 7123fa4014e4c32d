package diff

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

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
// forms, hand-crafted adversaries (NULLs, fused conjunctions, GROUP BY,
// overflow shapes, mid-segment appends over warm caches), the
// high-cardinality grouped family and the grouped 2^64 boundary. Each
// case then gets the cells its size affords. Below 4 096 rows: the flat
// table and the shard sizes of shardSizes, with the Range probes and
// Window shapes. From 4 096 rows on the case is big: grouped and ranked
// classes only, no row range, the flat table and one three-way split (at
// the primary thread count: the shard merge does not depend on it, and
// the flat table runs every count). Past 2^16 rows, for cost, the flat
// table only; the grown key tier still meets a sharded store in the
// 2^16-row composite case.
func Cases(cfg GenConfig) []Case {
	out := append(highCardCases(cfg), boundaryCases(cfg)...) // the longest first
	out = append(out, sweepCases(cfg)...)
	for i := range out {
		c := &out[i]
		switch n := c.rows(); {
		case n > 1<<16:
			c.big, c.Shards = true, []int{0}
		case n >= 4096:
			c.big, c.Shards = true, []int{0, (n + 2) / 3}
		default:
			c.Shards, c.Ranges = append([]int{0}, shardSizes(n)...), rangeProbes(n)
		}
	}
	return out
}

// shardSizes derives a small case's shard sizes from its row count: one
// shard (the degenerate flat-equivalent), an even two-way split, a
// seven-way split, and a fixed odd size chosen to leave a non-divisible
// tail shard for almost any n.
func shardSizes(n int) []int {
	if n == 0 {
		return []int{1}
	}
	var out []int
	for _, s := range []int{n, (n + 1) / 2, (n + 6) / 7, 77} {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// rangeProbes returns the positional probes for an n-row table: full,
// empty, past-the-end clipping, single rows at the head and interior,
// segment-aligned whole segments, and fringe-heavy interior shapes where
// both boundary segments are partial.
func rangeProbes(n int) [][2]int {
	var out [][2]int
	for _, p := range [][2]int{{0, n}, {0, 0}, {n, n + 13}, {0, 1}, {n / 2, n/2 + 1},
		{64, 192}, {1, max(1, n-1)}, {n / 4, 3*n/4 + 1}} {
		if p[1] >= p[0] && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// sweepCases is the generated sweep plus the crafted adversaries, drawn
// from one stream.
func sweepCases(cfg GenConfig) []Case {
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

// taus picks the bit-group sizes to sweep for a layout/width: the short
// profile hits 1, the library default, and the cap (HBP's is 31); the soak
// profile is dense at the low end (each small τ is a distinct group
// geometry), strided above, and takes both values at the cap.
func taus(layout bpagg.Layout, k int, deep bool) []int {
	maxTau := tauCap(layout, k)
	ts := []int{0, 1, maxTau}
	if deep {
		ts = []int{0, 1, 2, 3, 4, 5, 6, maxTau - 1, maxTau}
		for t := 11; t < maxTau; t += 5 {
			ts = append(ts, t)
		}
	}
	ts = slices.DeleteFunc(ts, func(t int) bool { return t > maxTau })
	slices.Sort(ts)
	return slices.Compact(ts)
}

// tauCap is the largest legal τ of a k-bit column: k, at most 31 on HBP.
func tauCap(layout bpagg.Layout, k int) int {
	if layout == bpagg.HBP {
		return min(k, 31)
	}
	return k
}

// sizes picks table lengths: always one tiny table (empty or single
// value), one segment boundary (63/64/65 — exact 64-value segments and
// partial tails), and one multi-segment length. The soak profile samples
// each bucket from a wider pool (incl. larger tables) rather than
// exhausting it — the breadth comes from running many seeds.
func sizes(rng *rand.Rand, deep bool) []int {
	pick := func(ns ...int) int { return ns[rng.Intn(len(ns))] }
	if deep {
		return []int{pick(0, 1, 2), pick(63, 64, 65, 66), pick(127, 128, 129, 191, 192, 200), pick(256, 320, 511, 600+rng.Intn(400))}
	}
	return []int{pick(0, 1), pick(63, 64, 65), pick(127, 129, 200)}
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

// genValues draws n k-bit values of one data pattern.
func genValues(rng *rand.Rand, pat string, n, k int) []uint64 {
	max := word.LowMask(k)
	vals := make([]uint64, n)
	for i := range vals {
		switch pat {
		case "uniform", "sorted", "rev":
			vals[i] = rng.Uint64() & max
		case "constmax":
			vals[i] = max
		case "duo":
			vals[i] = max * uint64(1-rng.Intn(2))
		case "nearmax":
			vals[i] = max - min(uint64(rng.Intn(3)), max)
		case "small":
			vals[i] = uint64(rng.Intn(4)) & max
		case "const0":
		default:
			panic("diff: unknown pattern " + pat)
		}
	}
	if pat == "sorted" || pat == "rev" {
		slices.Sort(vals)
	}
	if pat == "rev" {
		slices.Reverse(vals)
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
		pred("a", oracle.LE, max), pred("a", oracle.GT, max), // all-match, none-match
		pred("a", oracle.GE, v1), pred("a", oracle.LT, v2), pred("a", oracle.LE, v1), pred("a", oracle.EQ, v1), pred("a", oracle.NE, v1),
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
		const n = 130
		vals := genValues(rng, "uniform", n, 16)
		nulls := oneIn(rng, n, 5)
		v1 := vals[rng.Intn(n)]
		out = append(out,
			Case{Name: l + "-nulls-ge", Layout: layout, K: 16, A: vals, ANulls: nulls, Preds: pred("a", oracle.GE, v1)},
			Case{Name: l + "-nulls-nopred", Layout: layout, K: 16, A: vals, ANulls: nulls},
			Case{Name: l + "-allnull", Layout: layout, K: 8, A: make([]uint64, 70), ANulls: oneIn(nil, 70, 1),
				Preds: pred("a", oracle.LE, 255)})
		// Fused two-clause conjunction on same-width columns; the wide
		// variant overflows under the conjunction.
		b := genValues(rng, "uniform", n, 16)
		out = append(out, Case{Name: l + "-conj", Layout: layout, K: 16, A: vals, B: b,
			Preds: append(pred("a", oracle.GE, v1), pred("b", oracle.LE, b[rng.Intn(n)])...)})
		out = append(out, Case{Name: l + "-conj-overflow", Layout: layout, K: 63,
			A: genValues(rng, "nearmax", n, 63), B: genValues(rng, "uniform", n, 63),
			Preds: append(pred("a", oracle.GE, 1), pred("b", oracle.LE, word.LowMask(63))...)})
		// GROUP BY: low-cardinality keys; one variant with NULLs dense
		// enough that some group may lose every aggregate row, one with
		// per-group overflow.
		g := genValues(rng, "small", n, 16)
		out = append(out,
			Case{Name: l + "-groupby", Layout: layout, K: 16, A: vals, G: g, Preds: pred("a", oracle.GE, v1)},
			Case{Name: l + "-groupby-nulls", Layout: layout, K: 16, A: vals, ANulls: oneIn(rng, n, 2), G: g},
			Case{Name: l + "-groupby-overflow", Layout: layout, K: 64,
				A: genValues(rng, "nearmax", n, 64), G: genValues(rng, "duo", n, 64)})
		// Composite (g, g2) keys with mixed widths: one narrow pair that
		// packs into the direct index's 10 bits, one wider pair that
		// hashes, and an appended-tail variant.
		g2 := genValues(rng, "small", n, 16)
		wideG := genValues(rng, "uniform", n, 7)
		out = append(out,
			Case{Name: l + "-groupby-multi", Layout: layout, K: 16, GK: 4, G2K: 4, A: vals, G: g, G2: g2,
				Preds: pred("a", oracle.GE, v1)},
			Case{Name: l + "-groupby-multi-hash", Layout: layout, K: 16, GK: 7, G2K: 7,
				A: vals, G: wideG, G2: genValues(rng, "uniform", n, 7)},
			Case{Name: l + "-groupby-multi-extra", Layout: layout, K: 16, GK: 4, G2K: 4, A: vals, G: g, G2: g2,
				ExtraA: genValues(rng, "uniform", 37, 16),
				ExtraG: genValues(rng, "small", 37, 16), ExtraG2: genValues(rng, "small", 37, 16)})
		// NULLs in the grouping column itself: those rows join no group.
		out = append(out, Case{Name: l + "-groupby-gnulls", Layout: layout, K: 16, A: vals, G: g, GNulls: oneIn(rng, n, 4)})
		// Exact overflow boundaries: the largest sums that still fit and
		// the smallest that don't, around full and partial segments.
		out = append(out,
			Case{Name: l + "-sum-wrap-64", Layout: layout, K: 64, A: []uint64{word.LowMask(64), 1}, Preds: pred("a", oracle.GE, 0)},
			Case{Name: l + "-sum-fit-64", Layout: layout, K: 64, A: []uint64{word.LowMask(64), 0}, Preds: pred("a", oracle.GE, 0)},
			Case{Name: l + "-sum-wrap-tail", Layout: layout, K: 64, A: genValues(rng, "constmax", 65, 64)},
			Case{Name: l + "-sum-wrap-afterappend", Layout: layout, K: 62,
				A: genValues(rng, "constmax", 60, 62), ExtraA: genValues(rng, "constmax", 10, 62)})
		// τ at its cap with an exactly-full segment and an all-match
		// predicate: the cache-served fused path with no tail.
		out = append(out, Case{Name: l + "-tau-cap-full-seg", Layout: layout, K: 64, Tau: tauCap(layout, 64),
			A: genValues(rng, "uniform", 64, 64), Preds: pred("a", oracle.LE, word.LowMask(64))})
	}
	// GROUP BY over a key packed in the other layout, so the measure's
	// windows and the key's disagree (64 values against 63), with and
	// without measure NULLs. Drawn from a stream of their own, so the cases
	// above keep their data.
	flip := rand.New(rand.NewSource(cfg.Seed + 1<<33))
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		const n = 200
		vals, keys, nulls := genValues(flip, "uniform", n, 16), make([]uint64, n), make([]bool, n)
		for i := range keys {
			keys[i] = uint64(flip.Intn(9)) * 455 // 9 codes spread over the 12-bit key
			nulls[i] = flip.Intn(3) == 0
		}
		c := Case{Name: layout.String() + "-groupby-flipkeys", Layout: layout, K: 16, GK: 12, FlipKeys: true, A: vals, G: keys}
		out = append(out, c)
		c.Name, c.ANulls, c.Preds = c.Name+"-nulls", nulls, pred("g", oracle.LE, 7*455)
		out = append(out, c)
	}
	for i := range out {
		out[i].Name += fmt.Sprintf("-s%d", cfg.Seed)
	}
	return out
}

// pred is the one-conjunct WHERE col op a.
func pred(col string, op oracle.Op, a uint64) []PredSpec {
	return []PredSpec{{Col: col, Pred: oracle.Pred{Op: op, A: a}}}
}

// oneIn marks each of n rows with probability 1/k (every row for a nil
// rng).
func oneIn(rng *rand.Rand, n, k int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng == nil || rng.Intn(k) == 0
	}
	return b
}

// highCardCases is the high-cardinality grouped family: per layout, G ∈
// {1024, 4096, 65536} uniform keys (direct index, hashed, hashed and
// grown), plus a predicate variant, a composite variant, a NULL-groups
// variant, and at G = 4096 a NULL-bearing measure and a key in the other
// layout (so the measure's windows and the key's differ: 64 values against
// 63). The Deep profile adds G = 16384.
func highCardCases(cfg GenConfig) []Case {
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := func(rng *rand.Rand, g, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(g))
		}
		return out
	}
	var out []Case
	gs := []int{1024, 4096, 65536}
	if cfg.Deep {
		gs = append(gs, 16384)
	}
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		l := layout.String()
		for _, g := range gs {
			n := min(4*g, 1<<18)
			k := keys(rng, g, n)
			out = append(out, Case{Name: fmt.Sprintf("%s-hicard-G%d-s%d", l, g, cfg.Seed),
				Layout: layout, K: 16, GK: bits.Len(uint(g - 1)), A: genValues(rng, "uniform", n, 16), G: k})
		}
		// ~half the rows selected, so some keys vanish mid-partition.
		k := keys(rng, 4096, 16384)
		a := genValues(rng, "uniform", 16384, 16)
		out = append(out, Case{Name: fmt.Sprintf("%s-hicard-pred-s%d", l, cfg.Seed),
			Layout: layout, K: 16, GK: 12, A: a, G: k,
			Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: a[rng.Intn(16384)]}}}})
		// 6-bit × 10-bit keys pack to 16 bits: up to 65536 composites.
		g1, g2 := make([]uint64, 1<<16), make([]uint64, 1<<16)
		for i := range g1 {
			g1[i], g2[i] = uint64(rng.Intn(64)), uint64(rng.Intn(1024))
		}
		out = append(out, Case{Name: fmt.Sprintf("%s-hicard-multi-s%d", l, cfg.Seed),
			Layout: layout, K: 16, GK: 6, G2K: 10, A: genValues(rng, "uniform", 1<<16, 16), G: g1, G2: g2})
		// NULL grouping keys join no group.
		k, gNulls := make([]uint64, 4096), make([]bool, 4096)
		for i := range k {
			k[i], gNulls[i] = uint64(rng.Intn(1024)), rng.Intn(8) == 0
		}
		out = append(out, Case{Name: fmt.Sprintf("%s-hicard-gnulls-s%d", l, cfg.Seed),
			Layout: layout, K: 16, GK: 10, A: genValues(rng, "uniform", 4096, 16), G: k, GNulls: gNulls})
	}
	// Measure NULLs dense enough that some groups hold none but NULLs, and
	// the key in the other layout, from a stream of their own.
	rank := rand.New(rand.NewSource(cfg.Seed + 1<<32))
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		k, nulls := make([]uint64, 16384), make([]bool, 16384)
		for i := range k {
			k[i], nulls[i] = uint64(rank.Intn(4096)), rank.Intn(3) == 0
		}
		a := genValues(rank, "uniform", 16384, 16)
		out = append(out,
			Case{Name: fmt.Sprintf("%s-hicard-anulls-s%d", layout, cfg.Seed), Layout: layout, K: 16, GK: 12,
				A: a, ANulls: nulls, G: k},
			Case{Name: fmt.Sprintf("%s-hicard-flipkeys-s%d", layout, cfg.Seed), Layout: layout, K: 16, GK: 12,
				A: a, G: k, FlipKeys: true,
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.LT, A: 1 << 15}}}},
		)
	}
	return out
}

// boundaryCases put grouped 64-bit SUMs at the uint64 boundary, per
// layout, under a composite key: in "groupby-2p64" key (0,0) sums to
// exactly 2^64 from two values at opposite ends of the table — two
// workers' chunks and two shards, so the total needs the carry of a merge
// — and key (0,1) from two values in different segments of one chunk, so
// it needs the carry inside one worker's bank; "groupby-2p64m1" moves each
// pair one below, to 2^64 − 1, which fits. The other rows carry small
// values under keys (1..3, 0..3).
func boundaryCases(cfg GenConfig) []Case {
	rng := rand.New(rand.NewSource(cfg.Seed + 1<<34))
	const n = 3*4096 + 100
	var out []Case
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		a, g, g2 := genValues(rng, "uniform", n, 20), make([]uint64, n), make([]uint64, n)
		for i := range g {
			g[i], g2[i] = 1+uint64(rng.Intn(3)), uint64(rng.Intn(4))
		}
		for _, below := range []uint64{0, 1} {
			c := Case{Name: fmt.Sprintf("%s-groupby-2p64", layout), Layout: layout, K: 64, GK: 2, G2K: 2,
				A: slices.Clone(a), G: slices.Clone(g), G2: slices.Clone(g2)}
			if below == 1 {
				c.Name += "m1"
			}
			for _, r := range [][3]uint64{{20, 0, 0}, {n - 20, 0, below}, {10, 1, below}, {100, 1, 0}} {
				c.A[r[0]], c.G[r[0]], c.G2[r[0]] = 1<<63-r[2], 0, r[1]
			}
			c.Name += fmt.Sprintf("-s%d", cfg.Seed)
			out = append(out, c)
		}
	}
	return out
}
