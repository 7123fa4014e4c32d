package bpagg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// A decimal, signed or string column is a plain Column of codec codes,
// as internal/catalog keeps them: scans take encoded constants, and the
// ...Context aggregates' answers decode through the codec (a SUM through
// DecodeSum). The tests below run each codec through the aggregates.

// present is a ...Context answer's value, which the test expects to be
// there.
func present(v uint64, ok bool, err error) uint64 {
	if !ok {
		panic("bpagg: the aggregate found no value")
	}
	return must(v, err)
}

// codes packs values through enc into a column of the given bit width.
func codes[T any](layout Layout, bits int, enc func(T) uint64, vals ...T) *Column {
	col := NewColumn(layout, bits)
	for _, v := range vals {
		col.Append(enc(v))
	}
	return col
}

func TestDecimalColumn(t *testing.T) {
	codec := Decimal{Scale: 2, Max: 10000}
	for _, layout := range []Layout{VBP, HBP} {
		vals := []float64{12.34, 0, 9999.99, 500.5, 12.33}
		col := codes(layout, codec.Bits(), codec.Encode, vals...)
		for i, want := range vals {
			if got := codec.Decode(col.Value(i)); got != want {
				t.Fatalf("%v: Value(%d) = %v, want %v", layout, i, got, want)
			}
		}
		sel := col.Scan(Less(codec.Encode(500.5)))
		if sel.Count() != 3 { // 12.34, 0, 12.33
			t.Fatalf("%v: value < 500.5 selects %d rows", layout, sel.Count())
		}
		sum := codec.DecodeSum(must(col.SumContext(bg, sel)))
		if math.Abs(sum-24.67) > 1e-9 {
			t.Fatalf("%v: Sum = %v", layout, sum)
		}
		all := col.All()
		for _, c := range []struct {
			name string
			code uint64
			want float64
		}{
			{"Min", present((col.MinContext(bg, all))), 0},
			{"Max", present((col.MaxContext(bg, all))), 9999.99},
			{"Median", present((col.MedianContext(bg, all))), 12.34},
			{"Quantile(1)", present((col.QuantileContext(bg, all, 1))), 9999.99},
		} {
			if got := codec.Decode(c.code); got != c.want {
				t.Fatalf("%v: %s = %v, want %v", layout, c.name, got, c.want)
			}
		}
		if got := sum / float64(col.Count(sel)); math.Abs(got-24.67/3) > 1e-9 {
			t.Fatalf("%v: Avg = %v", layout, got)
		}
		between := col.Scan(Between(codec.Encode(12.34), codec.Encode(500.5)))
		if between.Count() != 2 {
			t.Fatalf("%v: BETWEEN selects %d rows", layout, between.Count())
		}
		top := codec.Encode(9999.99)
		if col.Scan(GreaterEq(top)).Count() != 1 || col.Scan(Greater(top)).Count() != 0 ||
			col.Scan(LessEq(codec.Encode(0))).Count() != 1 {
			t.Fatalf("%v: boundary scans wrong", layout)
		}
	}
}

func TestDecimalColumnNulls(t *testing.T) {
	codec := Decimal{Scale: 1, Max: 100}
	col := codes(VBP, codec.Bits(), codec.Encode, 10.5)
	col.AppendNull()
	col.Append(codec.Encode(20.5))
	sum := codec.DecodeSum(must(col.SumContext(bg, col.All())))
	if sum != 31 {
		t.Fatalf("Sum = %v", sum)
	}
	if got := sum / float64(col.Count(col.All())); got != 15.5 {
		t.Fatalf("Avg = %v", got)
	}
	if got, ok := must2(col.MinContext(bg, col.All())); !ok || codec.Decode(got) != 10.5 {
		t.Fatalf("Min = %v", codec.Decode(got))
	}
}

func TestSignedColumn(t *testing.T) {
	codec := Signed{Min: -500, Max: 500}
	vals := []int64{-500, -1, 0, 250, 500}
	col := codes(HBP, codec.Bits(), codec.Encode, vals...)
	for i, want := range vals {
		if got := codec.Decode(col.Value(i)); got != want {
			t.Fatalf("Value(%d) = %d, want %d", i, got, want)
		}
	}
	// sum decodes a selection's code total with its non-NULL count.
	sum := func(sel *Bitmap) int64 { return codec.DecodeSum(must(col.SumContext(bg, sel)), col.Count(sel)) }
	all := col.All()
	if got := sum(all); got != 249 {
		t.Fatalf("Sum = %d", got)
	}
	neg := col.Scan(Less(codec.Encode(0)))
	if neg.Count() != 2 {
		t.Fatalf("value < 0 selects %d rows", neg.Count())
	}
	if got := sum(neg); got != -501 {
		t.Fatalf("Sum(neg) = %d", got)
	}
	for _, c := range []struct {
		name string
		code uint64
		want int64
	}{
		{"Min", present((col.MinContext(bg, all))), -500},
		{"Max", present((col.MaxContext(bg, all))), 500},
		{"Median", present((col.MedianContext(bg, all))), 0},
	} {
		if got := codec.Decode(c.code); got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := float64(sum(all)) / float64(col.Count(all)); got != 249.0/5 {
		t.Fatalf("Avg = %v", got)
	}
	if col.Scan(Equal(codec.Encode(250))).Count() != 1 || col.Scan(Greater(codec.Encode(250))).Count() != 1 ||
		col.Scan(Between(codec.Encode(-1), codec.Encode(250))).Count() != 3 {
		t.Fatal("signed scans wrong")
	}
}

func TestSignedColumnRandomizedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	codec := Signed{Min: -10000, Max: 10000}
	col := NewColumn(VBP, codec.Bits())
	var want int64
	for i := 0; i < 3000; i++ {
		v := int64(rng.Intn(20001)) - 10000
		col.Append(codec.Encode(v))
		want += v
	}
	if got := codec.DecodeSum(must(col.SumContext(bg, col.All())), col.Count(col.All())); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
}

// dict freezes a dictionary over keys.
func dict(keys ...string) *Dict {
	d := NewDict()
	for _, k := range keys {
		d.Add(k)
	}
	d.Freeze()
	return d
}

// code is a key's dictionary code; the key must be in the dictionary.
func code(d *Dict, key string) uint64 {
	c, ok := d.Encode(key)
	if !ok {
		panic("key " + key + " not in the dictionary")
	}
	return c
}

func TestStringColumn(t *testing.T) {
	d := dict("URGENT", "HIGH", "MEDIUM", "LOW", "NONE")
	rows := []string{"HIGH", "LOW", "NONE", "HIGH", "URGENT", "MEDIUM"}
	col := codes(VBP, d.Bits(), func(k string) uint64 { return code(d, k) }, rows...)
	for i, want := range rows {
		if got := d.Decode(col.Value(i)); got != want {
			t.Fatalf("Value(%d) = %q, want %q", i, got, want)
		}
	}
	if got := col.Scan(Equal(code(d, "HIGH"))).Count(); got != 2 {
		t.Fatalf("= HIGH selects %d", got)
	}
	if _, ok := d.Encode("MISSING"); ok {
		t.Fatal("a key outside the dictionary encoded")
	}
	// Lexicographic range HIGH..MEDIUM covers HIGH, LOW, MEDIUM.
	if got := col.Scan(Between(code(d, "HIGH"), code(d, "MEDIUM"))).Count(); got != 4 {
		t.Fatalf("BETWEEN HIGH AND MEDIUM selects %d", got)
	}
	all := col.All()
	if got, ok := must2(col.MinContext(bg, all)); !ok || d.Decode(got) != "HIGH" {
		t.Fatalf("Min = %q", d.Decode(got))
	}
	if got, ok := must2(col.MaxContext(bg, all)); !ok || d.Decode(got) != "URGENT" {
		t.Fatalf("Max = %q", d.Decode(got))
	}
	// Dictionary-order median of sorted {HIGH,HIGH,LOW,MEDIUM,NONE,URGENT}
	// is LOW (3rd of 6).
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)
	if got, ok := must2(col.MedianContext(bg, all)); !ok || d.Decode(got) != sorted[(len(sorted)+1)/2-1] {
		t.Fatalf("Median = %q, want %q", d.Decode(got), sorted[(len(sorted)+1)/2-1])
	}
	if got := col.Count(all); got != 6 {
		t.Fatalf("Count = %d", got)
	}
}

func TestStringColumnNulls(t *testing.T) {
	d := dict("x", "y")
	col := codes(HBP, d.Bits(), func(k string) uint64 { return code(d, k) }, "y")
	col.AppendNull()
	col.Append(code(d, "x"))
	if got := col.Count(col.All()); got != 2 {
		t.Fatalf("Count = %d", got)
	}
	if got, ok := must2(col.MinContext(bg, col.All())); !ok || d.Decode(got) != "x" {
		t.Fatalf("Min = %q", d.Decode(got))
	}
	if got := col.Scan(Equal(code(d, "x"))).Count(); got != 1 {
		t.Fatalf("= x selects %d", got)
	}
}

func TestTypedRawComposition(t *testing.T) {
	// Selections over codec columns compose across columns.
	money, status := Decimal{Scale: 2, Max: 1000}, dict("ok", "err")
	price := codes(VBP, money.Bits(), money.Encode, 10, 20, 30, 40)
	state := codes(VBP, status.Bits(), func(k string) uint64 { return code(status, k) }, "ok", "err", "ok", "err")
	sel := price.Scan(Greater(money.Encode(15))).And(state.Scan(Equal(code(status, "ok"))))
	if sel.Count() != 1 || !sel.Get(2) {
		t.Fatalf("composed selection wrong: %d rows", sel.Count())
	}
	if got := money.DecodeSum(must(price.SumContext(bg, sel))); got != 30 {
		t.Fatalf("Sum = %v", got)
	}
}
