package bpagg

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for _, layout := range []Layout{VBP, HBP} {
		for _, n := range []int{0, 1, 64, 1000} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(rng.Intn(1 << 13))
			}
			col := FromValues(layout, 13, vals)
			var buf bytes.Buffer
			written, err := col.WriteTo(&buf)
			if err != nil {
				t.Fatalf("%v n=%d: WriteTo: %v", layout, n, err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("%v n=%d: WriteTo reported %d bytes, buffer has %d", layout, n, written, buf.Len())
			}
			got, err := ReadColumn(&buf)
			if err != nil {
				t.Fatalf("%v n=%d: ReadColumn: %v", layout, n, err)
			}
			if got.Layout() != layout || got.BitWidth() != 13 || got.Len() != n ||
				got.GroupBits() != col.GroupBits() {
				t.Fatalf("%v n=%d: metadata mismatch", layout, n)
			}
			for i, want := range vals {
				if got.Value(i) != want {
					t.Fatalf("%v n=%d: Value(%d) = %d, want %d", layout, n, i, got.Value(i), want)
				}
			}
			// Aggregates work on the deserialized column.
			if n > 0 {
				if must(got.SumContext(bg, got.All())) != must(col.SumContext(bg, col.All())) {
					t.Fatalf("%v n=%d: sums differ after round trip", layout, n)
				}
				gm, _ := must2(got.MedianContext(bg, got.All()))
				cm, _ := must2(col.MedianContext(bg, col.All()))
				if gm != cm {
					t.Fatalf("%v n=%d: medians differ after round trip", layout, n)
				}
			}
		}
	}
}

func TestColumnRoundTripWithNulls(t *testing.T) {
	col := NewColumn(HBP, 8)
	col.Append(1, 2)
	col.AppendNull()
	col.Append(3)
	var buf bytes.Buffer
	if _, err := col.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumn(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NullCount() != 1 || !got.IsNull(2) {
		t.Fatalf("nulls lost: count=%d", got.NullCount())
	}
	if must(got.SumContext(bg, got.All())) != 6 {
		t.Fatalf("Sum = %d", must(got.SumContext(bg, got.All())))
	}
}

func TestTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	tbl := NewTable()
	tbl.AddColumn("a", VBP, 10)
	tbl.AddColumn("b", HBP, 20)
	const n = 500
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = uint64(rng.Intn(1 << 10))
		b[i] = uint64(rng.Intn(1 << 20))
	}
	tbl.AppendColumnar(map[string][]uint64{"a": a, "b": b})

	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != n {
		t.Fatalf("Rows = %d", got.Rows())
	}
	cols := got.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
	wantSum := tbl.Query().Where("a", Less(512)).Sum("b")
	gotSum := got.Query().Where("a", Less(512)).Sum("b")
	if wantSum != gotSum {
		t.Fatalf("query after round trip: %d, want %d", gotSum, wantSum)
	}
}

func TestReadColumnRejectsCorruption(t *testing.T) {
	col := FromValues(VBP, 8, []uint64{1, 2, 3})
	var buf bytes.Buffer
	if _, err := col.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"bad layout", func(b []byte) []byte { b[6] = 7; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-4] }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, c := range cases {
		data := append([]byte(nil), good...)
		data = c.mutate(data)
		if _, err := ReadColumn(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadColumn accepted corrupt input", c.name)
		}
	}
}

func TestReadColumnRejectsDelimiterCorruption(t *testing.T) {
	// Flip a bit inside the HBP payload so a delimiter becomes 1 — the
	// invariant check must catch it.
	col := FromValues(HBP, 8, []uint64{1, 2, 3})
	var buf bytes.Buffer
	if _, err := col.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header is 4+2+1+2+2+8+1 = 20 bytes, then the first group size (8
	// bytes), then payload words: set the delimiter bit of slot 0 (word
	// bit tau in the LSB-first layout).
	tau := col.GroupBits()
	data[28+tau/8] ^= 1 << uint(tau%8)
	if _, err := ReadColumn(bytes.NewReader(data)); err == nil {
		t.Error("ReadColumn accepted payload with delimiter bits set")
	}
}

func TestReadTableRejectsCorruption(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("x", VBP, 4)
	tbl.AppendColumnar(map[string][]uint64{"x": {1, 2}})
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Error("ReadTable accepted bad magic")
	}
	if _, err := ReadTable(bytes.NewReader(good[:8])); err == nil {
		t.Error("ReadTable accepted truncated input")
	}
}

func TestZonesSurviveRoundTrip(t *testing.T) {
	// Sorted data: after a round trip, zone maps must still prune scans.
	vals := make([]uint64, 500)
	for i := range vals {
		vals[i] = uint64(i)
	}
	for _, layout := range []Layout{VBP, HBP} {
		col := FromValues(layout, 9, vals)
		var buf bytes.Buffer
		if _, err := col.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadColumn(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Zone presence: internal check via scan correctness + the raw
		// accessor used by serialization.
		zMin, zMax := got.rawZones()
		if len(zMin) == 0 || len(zMax) != len(zMin) {
			t.Fatalf("%v: zones lost in round trip", layout)
		}
		sel := got.Scan(Between(100, 199))
		if sel.Count() != 100 {
			t.Fatalf("%v: scan after round trip selected %d rows", layout, sel.Count())
		}
		for i := range vals {
			if sel.Get(i) != (vals[i] >= 100 && vals[i] <= 199) {
				t.Fatalf("%v: row %d wrong after round trip", layout, i)
			}
		}
	}
}

func TestReadColumnRejectsBadZones(t *testing.T) {
	col := FromValues(VBP, 8, []uint64{5, 6, 7})
	var buf bytes.Buffer
	if _, err := col.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the zone minimum (last 16 bytes are zMin+zMax for the single
	// segment) so min > max.
	data[len(data)-16] = 0xFF
	if _, err := ReadColumn(bytes.NewReader(data)); err == nil {
		t.Error("ReadColumn accepted inverted zone range")
	}
	// Bad zone flag.
	data2 := append([]byte(nil), buf.Bytes()...)
	data2[len(data2)-17] = 9
	if _, err := ReadColumn(bytes.NewReader(data2)); err == nil {
		t.Error("ReadColumn accepted bad zone flag")
	}
}
