package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Errorf("Len() = %d, want %d", b.Len(), n)
		}
		if b.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, b.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := NewFull(n)
		if b.Count() != n {
			t.Errorf("NewFull(%d).Count() = %d", n, b.Count())
		}
		// Tail invariant: words beyond n are zero.
		if n%64 != 0 && n > 0 {
			last := b.Word(b.NumWords() - 1)
			if last>>(uint(n%64)) != 0 {
				t.Errorf("NewFull(%d) tail bits set: %#x", n, last)
			}
		}
	}
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		b.Set(i)
	}
	if b.Count() != len(idx) {
		t.Fatalf("Count() = %d, want %d", b.Count(), len(idx))
	}
	for _, i := range idx {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Get(2) || b.Get(66) {
		t.Error("unexpected bits set")
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("Clear(64) failed")
	}
	b.SetBool(64, true)
	b.SetBool(0, false)
	if !b.Get(64) || b.Get(0) {
		t.Error("SetBool failed")
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			b.Set(i)
		}()
	}
}

func TestLogicOps(t *testing.T) {
	n := 200
	rng := rand.New(rand.NewSource(7))
	x, y := make([]bool, n), make([]bool, n)
	for i := range x {
		x[i] = rng.Intn(2) == 1
		y[i] = rng.Intn(2) == 1
	}
	bx, by := FromBools(x), FromBools(y)

	and := bx.Clone().And(by)
	or := bx.Clone().Or(by)
	andNot := bx.Clone().AndNot(by)
	xor := bx.Clone().Xor(by)
	not := bx.Clone().Not()
	for i := 0; i < n; i++ {
		if and.Get(i) != (x[i] && y[i]) {
			t.Fatalf("And bit %d", i)
		}
		if or.Get(i) != (x[i] || y[i]) {
			t.Fatalf("Or bit %d", i)
		}
		if andNot.Get(i) != (x[i] && !y[i]) {
			t.Fatalf("AndNot bit %d", i)
		}
		if xor.Get(i) != (x[i] != y[i]) {
			t.Fatalf("Xor bit %d", i)
		}
		if not.Get(i) != !x[i] {
			t.Fatalf("Not bit %d", i)
		}
	}
	// Not preserves the tail invariant.
	if not.Count() != n-bx.Count() {
		t.Fatalf("Not count %d, want %d", not.Count(), n-bx.Count())
	}
}

func TestLogicOpLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestDeMorganProperty(t *testing.T) {
	f := func(xs, ys []bool) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x := FromBools(xs[:n])
		y := FromBools(ys[:n])
		// NOT(x AND y) == NOT x OR NOT y
		lhs := x.Clone().And(y).Not()
		rhs := x.Clone().Not().Or(y.Clone().Not())
		for i := 0; i < n; i++ {
			if lhs.Get(i) != rhs.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExtractDeposit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	ref := make([]bool, n)
	b := New(n)
	for trial := 0; trial < 500; trial++ {
		start := rng.Intn(n)
		count := 1 + rng.Intn(64)
		w := rng.Uint64()
		b.Deposit(start, count, w)
		for j := 0; j < count; j++ {
			if start+j < n {
				ref[start+j] = (w>>uint(j))&1 == 1
			}
		}
		// Full consistency check.
		got := b.Extract(start, count)
		var want uint64
		for j := 0; j < count; j++ {
			if start+j < n && ref[start+j] {
				want |= 1 << uint(j)
			}
		}
		if got != want {
			t.Fatalf("trial %d: Extract(%d,%d) = %#x, want %#x", trial, start, count, got, want)
		}
	}
	for i := 0; i < n; i++ {
		if b.Get(i) != ref[i] {
			t.Fatalf("bit %d drifted from reference", i)
		}
	}
}

func TestExtractOverhang(t *testing.T) {
	b := NewFull(70)
	// Window [40, 104): bits 40..69 are ones, the rest zero.
	got := b.Extract(40, 64)
	want := (uint64(1) << 30) - 1
	if got != want {
		t.Fatalf("Extract(40,64) = %#x, want %#x", got, want)
	}
	if got := b.Extract(100, 64); got != 0 {
		t.Fatalf("Extract beyond end = %#x, want 0", got)
	}
}

func TestDepositOverhangDiscarded(t *testing.T) {
	b := New(70)
	b.Deposit(40, 64, ^uint64(0))
	if b.Count() != 30 {
		t.Fatalf("Count() = %d, want 30", b.Count())
	}
	// Tail invariant must hold after an overhanging deposit.
	if b.Word(1)>>6 != 0 {
		t.Fatalf("tail bits set: %#x", b.Word(1))
	}
}

// A deposit trims only when it reaches the last word; wherever it lands,
// the bits beyond Len stay zero.
func TestDepositKeepsTailInvariant(t *testing.T) {
	const n = 200 // four words, eight valid bits in the last
	for _, c := range []struct {
		name         string
		start, count int
		want         int
	}{
		{"inside an earlier word", 70, 50, 50},
		{"straddling two earlier words", 100, 64, 64},
		{"ending exactly at the last word", 128, 64, 64},
		{"straddling into the last word", 170, 64, 30},
		{"inside the last word", 195, 20, 5},
		{"starting beyond Len in the last word", 210, 30, 0},
		{"beyond the last word", 256, 64, 0},
	} {
		b := New(n)
		b.Deposit(c.start, c.count, ^uint64(0))
		if got := b.Count(); got != c.want {
			t.Errorf("%s: Count() = %d, want %d", c.name, got, c.want)
		}
		if tail := b.Word(3) >> (n % 64); tail != 0 {
			t.Errorf("%s: bits beyond Len set: %#x", c.name, tail)
		}
	}
}

func TestExtractAligned(t *testing.T) {
	b := New(128)
	b.SetWord(0, 0xDEADBEEFCAFEF00D)
	b.SetWord(1, 0x0123456789ABCDEF)
	if got := b.Extract(0, 64); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("aligned extract word 0: %#x", got)
	}
	if got := b.Extract(64, 64); got != 0x0123456789ABCDEF {
		t.Fatalf("aligned extract word 1: %#x", got)
	}
	if got := b.Extract(32, 64); got != 0x89ABCDEFDEADBEEF {
		t.Fatalf("straddling extract: %#x", got)
	}
}

func TestNextOneAndForEach(t *testing.T) {
	b := New(200)
	set := []int{3, 64, 65, 130, 199}
	for _, i := range set {
		b.Set(i)
	}
	var got []int
	for i := b.NextOne(0); i >= 0; i = b.NextOne(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(set) {
		t.Fatalf("NextOne walk found %v, want %v", got, set)
	}
	for i := range set {
		if got[i] != set[i] {
			t.Fatalf("NextOne walk found %v, want %v", got, set)
		}
	}
	var fe []int
	b.ForEachOne(func(i int) { fe = append(fe, i) })
	for i := range set {
		if fe[i] != set[i] {
			t.Fatalf("ForEachOne found %v, want %v", fe, set)
		}
	}
	if b.NextOne(200) != -1 || New(10).NextOne(0) != -1 {
		t.Error("NextOne should return -1 when exhausted")
	}
}

func TestRank(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	for _, i := range []int{0, 1, 3, 4, 64, 100, 200, 300, -5} {
		want := 0
		for j := 0; j < i && j < 200; j++ {
			if b.Get(j) {
				want++
			}
		}
		if got := b.Rank(i); got != want {
			t.Errorf("Rank(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestCountMatchesRankProperty(t *testing.T) {
	f := func(xs []bool) bool {
		b := FromBools(xs)
		return b.Count() == b.Rank(len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAnyAndString(t *testing.T) {
	b := New(5)
	if b.Any() {
		t.Error("empty bitmap Any() = true")
	}
	b.Set(2)
	if !b.Any() {
		t.Error("Any() = false after Set")
	}
	if got := b.String(); got != "00100" {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkCount(b *testing.B) {
	bm := NewFull(1 << 20)
	for i := 0; i < b.N; i++ {
		_ = bm.Count()
	}
}

func BenchmarkExtractUnaligned(b *testing.B) {
	bm := NewFull(1 << 20)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += bm.Extract((i*52)%(1<<19), 52)
	}
	_ = sink
}
