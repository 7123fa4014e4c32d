package bpagg

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// TestGroupHashDeterminismAcrossThreads pins the hash tier's merge
// contract at full growth: G = 65536 distinct keys, far past the direct
// tier, must produce bit-identical keys, counts, sums, and minima for
// Threads ∈ {1, 2, 8} on both layouts — the per-worker banks merge by
// sorted key order, so worker count must be unobservable in results.
// The partition must also stay a single traversal regardless of G.
func TestGroupHashDeterminismAcrossThreads(t *testing.T) {
	const G, n = 65536, 131072
	rng := rand.New(rand.NewSource(73))
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % G) // every key present
		vals[i] = uint64(rng.Intn(1 << 16))
	}
	for _, layout := range []Layout{VBP, HBP} {
		tbl := buildGroupTable(t, layout, layout, 16, 16, keys, vals)

		type result struct {
			keys, counts, sums, mins []uint64
		}
		var ref result
		for _, th := range []int{1, 2, 8} {
			q := tbl.Query().With(Parallel(th)).WithStats()
			g := must(q.GroupByContext(bg, "g"))
			if g.Strategy() != GroupHash {
				t.Fatalf("layout %v threads %d: strategy = %v, want hash", layout, th, g.Strategy())
			}
			if g.Len() != G {
				t.Fatalf("layout %v threads %d: %d groups, want %d", layout, th, g.Len(), G)
			}
			s := q.Stats()
			if s.Scans != 1 {
				t.Errorf("layout %v threads %d: partition Scans = %d, want 1 (one traversal regardless of G)",
					layout, th, s.Scans)
			}
			if s.HashProbes == 0 {
				t.Errorf("layout %v threads %d: HashProbes = 0, want > 0 on the hash tier", layout, th)
			}
			if s.HashGrowths == 0 {
				t.Errorf("layout %v threads %d: HashGrowths = 0, want > 0 at G=%d", layout, th, G)
			}
			r := result{g.Keys(), must(g.CountContext(bg)), must(g.SumContext(bg, "v")), must(g.MinContext(bg, "v"))}
			if th == 1 {
				ref = r
				continue
			}
			for name, pair := range map[string][2][]uint64{
				"keys":   {ref.keys, r.keys},
				"counts": {ref.counts, r.counts},
				"sums":   {ref.sums, r.sums},
				"mins":   {ref.mins, r.mins},
			} {
				a, b := pair[0], pair[1]
				if len(a) != len(b) {
					t.Fatalf("layout %v: %s length differs between threads 1 (%d) and %d (%d)",
						layout, name, len(a), th, len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("layout %v: %s[%d] = %d at threads %d, %d at threads 1 — merge is thread-dependent",
							layout, name, i, b[i], th, a[i])
					}
				}
			}
		}
	}
}

// TestGroupHashSumOverflowCarriesKey mirrors the PR 5 direct-tier
// overflow pin on the hash tier: a group summing to 2^69 must surface
// *OverflowError carrying both the exact 128-bit total and the offending
// group's key — including the unpacked parts of a composite key.
func TestGroupHashSumOverflowCarriesKey(t *testing.T) {
	const n = 128
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i], vals[i] = 5, 1<<63 // 64 rows → sum 2^69
		} else {
			keys[i], vals[i] = 1029, 1 // needs 11 bits: hash tier
		}
	}
	for _, layout := range []Layout{VBP, HBP} {
		tbl := buildGroupTable(t, layout, layout, 11, 64, keys, vals)
		g := must(tbl.Query().GroupByContext(bg, "g"))
		if g.Strategy() != GroupHash {
			t.Fatalf("layout %v: strategy = %v, want hash", layout, g.Strategy())
		}
		_, err := g.SumContext(context.Background(), "v")
		var ov *OverflowError
		if !errors.As(err, &ov) {
			t.Fatalf("layout %v: SumContext = %v, want *OverflowError", layout, err)
		}
		if want := "590295810358705651712"; ov.Big().String() != want { // 64 · 2^63 = 2^69
			t.Fatalf("layout %v: overflow total = %s, want %s", layout, ov.Big().String(), want)
		}
		if len(ov.Group) != 1 || ov.Group[0] != 5 {
			t.Fatalf("layout %v: OverflowError.Group = %v, want [5]", layout, ov.Group)
		}
	}

	// Composite key: the error's Group must unpack to the per-column parts.
	g2 := make([]uint64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i], g2[i], vals[i] = 5, 9, 1<<63
		} else {
			keys[i], g2[i], vals[i] = 17, 33, 1
		}
	}
	tbl := NewTable()
	tbl.AddColumn("g", VBP, 6)
	tbl.AddColumn("g2", VBP, 6)
	tbl.AddColumn("v", VBP, 64)
	tbl.AppendColumnar(map[string][]uint64{"g": keys, "g2": g2, "v": vals})
	g := must(tbl.Query().GroupByContext(bg, "g", "g2"))
	if g.Strategy() != GroupHash {
		t.Fatalf("composite: strategy = %v, want hash", g.Strategy())
	}
	_, err := g.SumContext(context.Background(), "v")
	var ov *OverflowError
	if !errors.As(err, &ov) {
		t.Fatalf("composite: SumContext = %v, want *OverflowError", err)
	}
	if len(ov.Group) != 2 || ov.Group[0] != 5 || ov.Group[1] != 9 {
		t.Fatalf("composite: OverflowError.Group = %v, want [5 9]", ov.Group)
	}
}

// FuzzGroupHashBank is the hash tier's property check: for fuzz-chosen
// composite key widths past the direct tier, data shapes, layouts, and
// thread counts, the hash-banked partition must agree bit for bit with
// both the test-side reference walk and a naive map-built oracle.
func FuzzGroupHashBank(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(11), uint8(3), uint8(12), uint8(0), uint8(1))
	f.Add(int64(2), uint16(2000), uint8(13), uint8(1), uint8(30), uint8(1), uint8(8))
	f.Add(int64(3), uint16(64), uint8(12), uint8(6), uint8(7), uint8(2), uint8(4))
	f.Add(int64(4), uint16(4000), uint8(11), uint8(4), uint8(16), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kG1, kG2, kV, layouts, threads uint8) {
		if n == 0 {
			return
		}
		// First key column past DirectKeyBits so the hash tier is always
		// the one under test; a narrow second column keeps the composite
		// cardinality under the n ≤ 65535 row count.
		k1 := 11 + int(kG1)%3
		k2 := 1 + int(kG2)%6
		kv := 1 + int(kV)%32
		rng := rand.New(rand.NewSource(seed))
		g1 := make([]uint64, n)
		g2 := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range g1 {
			g1[i] = rng.Uint64() & ((1 << k1) - 1)
			g2[i] = rng.Uint64() & ((1 << k2) - 1)
			vals[i] = rng.Uint64() & ((1 << kv) - 1)
		}
		lg, lv := VBP, VBP
		if layouts&1 != 0 {
			lg = HBP
		}
		if layouts&2 != 0 {
			lv = HBP
		}
		tbl := NewTable()
		tbl.AddColumn("g", lg, k1)
		tbl.AddColumn("g2", lg, k2)
		tbl.AddColumn("v", lv, kv)
		tbl.AppendColumnar(map[string][]uint64{"g": g1, "g2": g2, "v": vals})
		th := 1 + int(threads)%8

		// Naive oracle: map-accumulated per-composite-key tallies.
		type acc struct{ count, sum, min, max uint64 }
		m := map[uint64]*acc{}
		for i := range g1 {
			key := g1[i]<<uint(k2) | g2[i]
			a := m[key]
			if a == nil {
				a = &acc{min: ^uint64(0)}
				m[key] = a
			}
			a.count++
			a.sum += vals[i] // kv ≤ 32, n ≤ 65535: cannot overflow
			if vals[i] < a.min {
				a.min = vals[i]
			}
			if vals[i] > a.max {
				a.max = vals[i]
			}
		}
		wantKeys := make([]uint64, 0, len(m))
		for k := range m {
			wantKeys = append(wantKeys, k)
		}
		sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })

		sp := must(tbl.Query().With(Parallel(th)).GroupByContext(bg, "g", "g2"))
		if sp.Strategy() != GroupHash {
			t.Fatalf("strategy = %v, want hash (k1=%d k2=%d)", sp.Strategy(), k1, k2)
		}
		qm := tbl.Query().With(Parallel(th))
		qm.Selection()
		materialized := must(qm.GroupByContext(bg, "g", "g2"))
		if materialized.Strategy() != GroupHash {
			t.Fatalf("materialized selection moved the tier to %v", materialized.Strategy())
		}

		// The reference walk is the third, independent opinion: same
		// partition as the hash bank, same tallies as the map.
		ref := referenceGroupWalk(t, tbl, tbl.Query().Selection(), "g", "g2")
		requireSameGroups(t, sp, ref)
		refSums, err := ref.SumContext(context.Background(), "v")
		if err != nil {
			t.Fatal(err)
		}
		refCounts, refMins, refMaxs := ref.Count(), ref.Min("v"), ref.Max("v")
		for i, k := range ref.keys {
			a := m[k]
			if refCounts[i] != a.count || refSums[i] != a.sum || refMins[i] != a.min || refMaxs[i] != a.max {
				t.Fatalf("reference walk: group %d (key %d): count/sum/min/max = %d/%d/%d/%d, oracle %d/%d/%d/%d",
					i, k, refCounts[i], refSums[i], refMins[i], refMaxs[i], a.count, a.sum, a.min, a.max)
			}
		}

		for _, eng := range []struct {
			name string
			g    *Grouped
		}{{"hash", sp}, {"hash over a materialized selection", materialized}} {
			gotKeys := eng.g.Keys()
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("%s: %d keys, oracle %d", eng.name, len(gotKeys), len(wantKeys))
			}
			counts, sums := must(eng.g.CountContext(bg)), must(eng.g.SumContext(bg, "v"))
			mins, maxs := must(eng.g.MinContext(bg, "v")), must(eng.g.MaxContext(bg, "v"))
			for i, k := range gotKeys {
				if k != wantKeys[i] {
					t.Fatalf("%s: key[%d] = %d, oracle %d", eng.name, i, k, wantKeys[i])
				}
				parts := eng.g.KeyParts(i)
				if len(parts) != 2 || parts[0] != k>>uint(k2) || parts[1] != k&((1<<k2)-1) {
					t.Fatalf("%s: KeyParts(%d) = %v for key %d", eng.name, i, parts, k)
				}
				a := m[k]
				if counts[i] != a.count || sums[i] != a.sum || mins[i] != a.min || maxs[i] != a.max {
					t.Fatalf("%s: group %d (key %d): count/sum/min/max = %d/%d/%d/%d, oracle %d/%d/%d/%d",
						eng.name, i, k, counts[i], sums[i], mins[i], maxs[i], a.count, a.sum, a.min, a.max)
				}
			}
		}
	})
}
