package core

import (
	"sort"
	"testing"
	"testing/quick"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Property tests: for quick-generated columns and filters, every
// bit-parallel aggregate must agree with plain-slice evaluation, on both
// layouts, under arbitrary (k, tau).

type aggInput struct {
	K, Tau int
	Vals   []uint64
	Filter *bitvec.Bitmap
	Kept   []uint64 // sorted
}

func normalizeAgg(kRaw, tauRaw uint8, raw []uint64, mask []bool) aggInput {
	k := int(kRaw)%64 + 1
	tau := int(tauRaw)%k + 1
	if tau > word.MaxTau {
		tau = word.MaxTau
	}
	vals := make([]uint64, len(raw))
	f := bitvec.New(len(raw))
	var kept []uint64
	for i, v := range raw {
		vals[i] = v & word.LowMask(k)
		if i < len(mask) && mask[i] {
			f.Set(i)
			kept = append(kept, vals[i])
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return aggInput{K: k, Tau: tau, Vals: vals, Filter: f, Kept: kept}
}

func (in aggInput) refSum() uint64 {
	var s uint64
	for _, v := range in.Kept {
		s += v
	}
	return s
}

func checkAggs(sum uint64, mn, mx, med uint64, okMin, okMax, okMed bool, in aggInput) bool {
	if sum != in.refSum() {
		return false
	}
	if okMin != (len(in.Kept) > 0) || okMax != okMin || okMed != okMin {
		return false
	}
	if len(in.Kept) == 0 {
		return true
	}
	return mn == in.Kept[0] &&
		mx == in.Kept[len(in.Kept)-1] &&
		med == in.Kept[(len(in.Kept)+1)/2-1]
}

func TestPropVBPAggregatesMatchScalar(t *testing.T) {
	f := func(kRaw, tauRaw uint8, raw []uint64, mask []bool) bool {
		in := normalizeAgg(kRaw, tauRaw, raw, mask)
		col := vbp.Pack(in.Vals, in.K, in.Tau)
		sum := VBPSum(col, in.Filter)
		mn, okMin := VBPMin(col, in.Filter)
		mx, okMax := VBPMax(col, in.Filter)
		med, okMed := VBPMedian(col, in.Filter)
		return checkAggs(sum, mn, mx, med, okMin, okMax, okMed, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropHBPAggregatesMatchScalar(t *testing.T) {
	f := func(kRaw, tauRaw uint8, raw []uint64, mask []bool) bool {
		in := normalizeAgg(kRaw, tauRaw, raw, mask)
		col := hbp.Pack(in.Vals, in.K, in.Tau)
		sum := HBPSum(col, in.Filter)
		mn, okMin := HBPMin(col, in.Filter)
		mx, okMax := HBPMax(col, in.Filter)
		med, okMed := HBPMedian(col, in.Filter)
		return checkAggs(sum, mn, mx, med, okMin, okMax, okMed, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropRankIsSortedIndex(t *testing.T) {
	// Rank(r) must equal the (r-1)-th element of the sorted kept values,
	// for every valid r, on both layouts.
	f := func(kRaw, tauRaw uint8, raw []uint64, mask []bool, rRaw uint8) bool {
		in := normalizeAgg(kRaw, tauRaw, raw, mask)
		if len(in.Kept) == 0 {
			return true
		}
		r := uint64(rRaw)%uint64(len(in.Kept)) + 1
		want := in.Kept[r-1]
		vcol := vbp.Pack(in.Vals, in.K, in.Tau)
		hcol := hbp.Pack(in.Vals, in.K, in.Tau)
		gv, okv := VBPRank(vcol, in.Filter, r)
		gh, okh := HBPRank(hcol, in.Filter, r)
		return okv && okh && gv == want && gh == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropLayoutsAgree(t *testing.T) {
	// The two layouts are alternative encodings of the same column: every
	// aggregate must coincide.
	f := func(kRaw, tauRaw uint8, raw []uint64, mask []bool) bool {
		in := normalizeAgg(kRaw, tauRaw, raw, mask)
		vcol := vbp.Pack(in.Vals, in.K, in.Tau)
		hcol := hbp.Pack(in.Vals, in.K, in.Tau)
		if VBPSum(vcol, in.Filter) != HBPSum(hcol, in.Filter) {
			return false
		}
		va, oka := VBPAvg(vcol, in.Filter)
		ha, okb := HBPAvg(hcol, in.Filter)
		return va == ha && oka == okb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropSumSplitsAcrossRanges(t *testing.T) {
	// Partial sums over a segment split must add up to the full sum — the
	// invariant multi-threading relies on.
	f := func(kRaw, tauRaw uint8, raw []uint64, mask []bool, cutRaw uint8) bool {
		in := normalizeAgg(kRaw, tauRaw, raw, mask)
		vcol := vbp.Pack(in.Vals, in.K, in.Tau)
		hcol := hbp.Pack(in.Vals, in.K, in.Tau)
		nsegV := vcol.NumSegments()
		if nsegV == 0 {
			return true
		}
		cutV := int(cutRaw) % (nsegV + 1)
		src, st := Bits(in.Filter), &FusedStats{}
		full := VBPSum(vcol, in.Filter)
		_, a, _ := VBPSumCount(vcol, src, 0, cutV, st)
		if _, b, _ := VBPSumCount(vcol, src, cutV, nsegV, st); a+b != full {
			return false
		}
		nsegH := hcol.NumSegments()
		cutH := int(cutRaw) % (nsegH + 1)
		fullH := HBPSum(hcol, in.Filter)
		_, a, _ = HBPSumCount(hcol, src, 0, cutH, st)
		_, b, _ := HBPSumCount(hcol, src, cutH, nsegH, st)
		return a+b == fullH
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
