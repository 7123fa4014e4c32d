package scan

import (
	"math/rand"
	"sort"
	"testing"

	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func TestZoneDecisionTable(t *testing.T) {
	// Segment range [10, 20].
	cases := []struct {
		p         Predicate
		none, all bool
	}{
		{Predicate{Op: EQ, A: 5}, true, false},
		{Predicate{Op: EQ, A: 15}, false, false},
		{Predicate{Op: EQ, A: 25}, true, false},
		{Predicate{Op: NE, A: 5}, false, true},
		{Predicate{Op: NE, A: 15}, false, false},
		{Predicate{Op: LT, A: 10}, true, false},
		{Predicate{Op: LT, A: 21}, false, true},
		{Predicate{Op: LT, A: 15}, false, false},
		{Predicate{Op: LE, A: 9}, true, false},
		{Predicate{Op: LE, A: 20}, false, true},
		{Predicate{Op: GT, A: 20}, true, false},
		{Predicate{Op: GT, A: 9}, false, true},
		{Predicate{Op: GE, A: 21}, true, false},
		{Predicate{Op: GE, A: 10}, false, true},
		{Predicate{Op: Between, A: 21, B: 30}, true, false},
		{Predicate{Op: Between, A: 0, B: 9}, true, false},
		{Predicate{Op: Between, A: 10, B: 20}, false, true},
		{Predicate{Op: Between, A: 12, B: 18}, false, false},
	}
	for _, c := range cases {
		none, all := c.p.zoneDecision(10, 20)
		if none != c.none || all != c.all {
			t.Errorf("%s %d/%d on [10,20]: got (none=%v all=%v), want (none=%v all=%v)",
				c.p.Op, c.p.A, c.p.B, none, all, c.none, c.all)
		}
	}
	// Constant segment [15, 15].
	if none, all := (Predicate{Op: EQ, A: 15}).zoneDecision(15, 15); none || !all {
		t.Error("EQ on constant matching segment should be all")
	}
	if none, all := (Predicate{Op: NE, A: 15}).zoneDecision(15, 15); !none || all {
		t.Error("NE on constant matching segment should be none")
	}
}

// TestZonePrunedScanMatchesScalar runs scans over sorted data — the case
// where nearly every segment is zone-prunable — and checks exactness.
func TestZonePrunedScanMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, k = 3000, 16
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	vcol := vbp.Pack(vals, k, 4)
	hcol := hbp.Pack(vals, k, hbp.DefaultTau(k))
	for _, p := range []Predicate{
		{Op: LT, A: vals[n/2]},
		{Op: GE, A: vals[n/4]},
		{Op: EQ, A: vals[n/3]},
		{Op: NE, A: vals[n/3]},
		{Op: Between, A: vals[n/4], B: vals[3*n/4]},
		{Op: LE, A: 0},
		{Op: GT, A: word.LowMask(k) - 1},
	} {
		vb := VBPStats(vcol, p, nil)
		hb := HBPStats(hcol, p, nil)
		for i, v := range vals {
			want := p.Matches(v)
			if vb.Get(i) != want {
				t.Fatalf("VBP %s %d: row %d (value %d) got %v", p.Op, p.A, i, v, vb.Get(i))
			}
			if hb.Get(i) != want {
				t.Fatalf("HBP %s %d: row %d (value %d) got %v", p.Op, p.A, i, v, hb.Get(i))
			}
		}
	}
}

// TestScanWithoutZones covers columns adopted via FromWords, which carry no
// zone maps: scans must fall back to full evaluation and stay exact.
func TestScanWithoutZones(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	vals := randValues(rng, 500, 12)
	{
		orig := vbp.Pack(vals, 12, 4)
		groups := make([][]uint64, orig.NumGroups())
		for g := range groups {
			groups[g] = orig.Groups()[g].Words
		}
		col, err := vbp.FromWords(12, 4, len(vals), groups)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := col.ZoneRange(0); ok {
			t.Fatal("FromWords column unexpectedly has zones")
		}
		p := Predicate{Op: LT, A: 2000}
		bm := VBPStats(col, p, nil)
		for i, v := range vals {
			if bm.Get(i) != p.Matches(v) {
				t.Fatalf("VBP row %d mismatch without zones", i)
			}
		}
	}
	{
		orig := hbp.Pack(vals, 12, 4)
		groups := make([][]uint64, orig.NumGroups())
		for g := range groups {
			groups[g] = orig.GroupWords(g)
		}
		col, err := hbp.FromWords(12, 4, len(vals), groups)
		if err != nil {
			t.Fatal(err)
		}
		p := Predicate{Op: Between, A: 100, B: 3000}
		bm := HBPStats(col, p, nil)
		for i, v := range vals {
			if bm.Get(i) != p.Matches(v) {
				t.Fatalf("HBP row %d mismatch without zones", i)
			}
		}
	}
}

// BenchmarkZonePruning shows the zone-map payoff on sorted data: a range
// predicate decides all but two segments from the zone alone.
func BenchmarkZonePruning(b *testing.B) {
	const n, k = 1 << 18, 20
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i) % (1 << k) // sorted within each wraparound
	}
	sorted := vbp.Pack(vals, k, 4)
	shuffled := make([]uint64, n)
	copy(shuffled, vals)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	random := vbp.Pack(shuffled, k, 4)
	p := Predicate{Op: Between, A: 1000, B: 2000}
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VBPStats(sorted, p, nil)
		}
	})
	b.Run("shuffled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VBPStats(random, p, nil)
		}
	})
}
