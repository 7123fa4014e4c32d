package core

import (
	"math/big"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

func TestSumOverflowPossible(t *testing.T) {
	cases := []struct {
		k, n int
		want bool
	}{
		{1, 0, false},
		{0, 100, false},
		{64, 1, false}, // one max value is exactly 2^64-1
		{64, 2, true},  // 2·(2^64-1) wraps
		{63, 2, false}, // 2·(2^63-1) = 2^64-2 fits
		{63, 3, true},  // 3·(2^63-1) wraps
		{1, 1 << 30, false},
		{32, 1 << 30, false}, // 2^30·(2^32-1) < 2^64
		{32, 1 << 33, true},  // 2^33·(2^32-1) ≥ 2^64
	}
	for _, c := range cases {
		if got := SumOverflowPossible(c.k, c.n); got != c.want {
			t.Errorf("SumOverflowPossible(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
}

func TestAdd128Primitives(t *testing.T) {
	hi, lo := add128(0, ^uint64(0), 1)
	if hi != 1 || lo != 0 {
		t.Fatalf("add128 carry: got (%d, %d)", hi, lo)
	}
	hi, lo = addShift128(0, 0, ^uint64(0), 1)
	if hi != 1 || lo != ^uint64(0)-1 {
		t.Fatalf("addShift128: got (%d, %d)", hi, lo)
	}
	hi, lo = addShift128(0, 0, 7, 0)
	if hi != 0 || lo != 7 {
		t.Fatalf("addShift128 s=0: got (%d, %d)", hi, lo)
	}
	hi, lo = add128Shifted(0, 0, 1, 1, 4)
	if hi != 16 || lo != 16 {
		t.Fatalf("add128Shifted: got (%d, %d)", hi, lo)
	}
	hi, lo = add128Shifted(2, 3, 1, 5, 0)
	if hi != 3 || lo != 8 {
		t.Fatalf("add128Shifted s=0: got (%d, %d)", hi, lo)
	}
}

// big128 maps (hi, lo) to a big.Int for comparison against a naive sum.
func big128(hi, lo uint64) *big.Int {
	b := new(big.Int).SetUint64(hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(lo))
}

// TestSumRange128MatchesBigInt drives both layouts' SUM kernels over
// random wide columns and filters and compares their 128-bit totals
// against a big.Int loop.
func TestSumRange128MatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{59, 62, 63, 64} {
		for _, n := range []int{1, 63, 64, 65, 200} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & word.LowMask(k)
			}
			f := bitvec.New(n)
			want := new(big.Int)
			for i, v := range vals {
				if rng.Intn(4) != 0 {
					f.Set(i)
					want.Add(want, new(big.Int).SetUint64(v))
				}
			}

			vc := vbp.New(k, 4)
			vc.Append(vals...)
			hi, lo, _ := VBPSumCount(vc, Bits(f), 0, vc.NumSegments(), &FusedStats{})
			if got := big128(hi, lo); got.Cmp(want) != 0 {
				t.Errorf("VBPSumCount k=%d n=%d: got %s, want %s", k, n, got, want)
			}

			tau := k
			if tau > 31 {
				tau = 31
			}
			hc := hbp.New(k, tau)
			hc.Append(vals...)
			hf := bitvec.New(n)
			for i := 0; i < n; i++ {
				if f.Get(i) {
					hf.Set(i)
				}
			}
			hi, lo, _ = HBPSumCount(hc, Bits(hf), 0, hc.NumSegments(), &FusedStats{})
			if got := big128(hi, lo); got.Cmp(want) != 0 {
				t.Errorf("HBPSumCount k=%d tau=%d n=%d: got %s, want %s", k, tau, n, got, want)
			}
		}
	}
}

// TestSumRange128AgreesWithUnchecked pins the 128-bit SUM kernels to a
// plain uint64 loop on columns that provably cannot wrap: hi stays zero.
func TestSumRange128AgreesWithUnchecked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, n = 40, 300
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & word.LowMask(k)
	}
	f := bitvec.New(n)
	var want uint64
	for i := 0; i < n; i += 3 {
		f.Set(i)
		want += vals[i]
	}

	vc := vbp.New(k, 4)
	vc.Append(vals...)
	if hi, lo, _ := VBPSumCount(vc, Bits(f), 0, vc.NumSegments(), &FusedStats{}); hi != 0 || lo != want {
		t.Errorf("VBP: (%d, %d), want (0, %d)", hi, lo, want)
	}

	hc := hbp.New(k, 8)
	hc.Append(vals...)
	if hi, lo, _ := HBPSumCount(hc, Bits(f), 0, hc.NumSegments(), &FusedStats{}); hi != 0 || lo != want {
		t.Errorf("HBP: (%d, %d), want (0, %d)", hi, lo, want)
	}
}
