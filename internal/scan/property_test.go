package scan

import (
	"testing"
	"testing/quick"

	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Property tests: for quick-generated columns and constants, every
// bit-parallel scan must agree tuple-for-tuple with Predicate.Matches.

type scanInput struct {
	K    int
	Tau  int
	Vals []uint64
	A, B uint64
}

// normalize maps quick's raw generated values into a valid scan input.
func normalize(kRaw, tauRaw uint8, raw []uint64, a, b uint64) scanInput {
	k := int(kRaw)%64 + 1
	tau := int(tauRaw)%k + 1
	if tau > word.MaxTau {
		tau = word.MaxTau
	}
	vals := make([]uint64, len(raw))
	for i, v := range raw {
		vals[i] = v & word.LowMask(k)
	}
	a &= word.LowMask(k)
	b &= word.LowMask(k)
	if a > b {
		a, b = b, a
	}
	return scanInput{K: k, Tau: tau, Vals: vals, A: a, B: b}
}

func predicates(in scanInput) []Predicate {
	return []Predicate{
		{Op: EQ, A: in.A}, {Op: NE, A: in.A},
		{Op: LT, A: in.A}, {Op: LE, A: in.A},
		{Op: GT, A: in.A}, {Op: GE, A: in.A},
		{Op: Between, A: in.A, B: in.B},
	}
}

func TestPropVBPScanMatchesScalar(t *testing.T) {
	f := func(kRaw, tauRaw uint8, raw []uint64, a, b uint64) bool {
		in := normalize(kRaw, tauRaw, raw, a, b)
		col := vbp.Pack(in.Vals, in.K, in.Tau)
		for _, p := range predicates(in) {
			bm := VBPStats(col, p, nil)
			for i, v := range in.Vals {
				if bm.Get(i) != p.Matches(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropHBPScanMatchesScalar(t *testing.T) {
	f := func(kRaw, tauRaw uint8, raw []uint64, a, b uint64) bool {
		in := normalize(kRaw, tauRaw, raw, a, b)
		col := hbp.Pack(in.Vals, in.K, in.Tau)
		for _, p := range predicates(in) {
			bm := HBPStats(col, p, nil)
			for i, v := range in.Vals {
				if bm.Get(i) != p.Matches(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropScanComplementLaws(t *testing.T) {
	// EQ and NE partition the rows; LT|EQ == LE; GT|EQ == GE.
	f := func(kRaw, tauRaw uint8, raw []uint64, a uint64) bool {
		in := normalize(kRaw, tauRaw, raw, a, a)
		col := vbp.Pack(in.Vals, in.K, in.Tau)
		n := len(in.Vals)
		eq := VBPStats(col, Predicate{Op: EQ, A: in.A}, nil)
		ne := VBPStats(col, Predicate{Op: NE, A: in.A}, nil)
		lt := VBPStats(col, Predicate{Op: LT, A: in.A}, nil)
		le := VBPStats(col, Predicate{Op: LE, A: in.A}, nil)
		gt := VBPStats(col, Predicate{Op: GT, A: in.A}, nil)
		ge := VBPStats(col, Predicate{Op: GE, A: in.A}, nil)
		if eq.Count()+ne.Count() != n {
			return false
		}
		if lt.Count()+eq.Count() != le.Count() {
			return false
		}
		if gt.Count()+eq.Count() != ge.Count() {
			return false
		}
		return lt.Count()+gt.Count()+eq.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropBetweenEqualsRangeConjunction(t *testing.T) {
	// BETWEEN(a,b) == GE(a) AND LE(b), for both layouts.
	f := func(kRaw, tauRaw uint8, raw []uint64, a, b uint64) bool {
		in := normalize(kRaw, tauRaw, raw, a, b)
		vcol := vbp.Pack(in.Vals, in.K, in.Tau)
		hcol := hbp.Pack(in.Vals, in.K, in.Tau)
		vbw := VBPStats(vcol, Predicate{Op: Between, A: in.A, B: in.B}, nil)
		vconj := VBPStats(vcol, Predicate{Op: GE, A: in.A}, nil).And(VBPStats(vcol, Predicate{Op: LE, A: in.B}, nil))
		hbw := HBPStats(hcol, Predicate{Op: Between, A: in.A, B: in.B}, nil)
		hconj := HBPStats(hcol, Predicate{Op: GE, A: in.A}, nil).And(HBPStats(hcol, Predicate{Op: LE, A: in.B}, nil))
		for i := range in.Vals {
			if vbw.Get(i) != vconj.Get(i) || hbw.Get(i) != hconj.Get(i) || vbw.Get(i) != hbw.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
