package bpagg

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadColumn asserts the column deserializer never panics on arbitrary
// bytes: it must either reject the input with an error or return a column
// whose aggregates run without crashing.
func FuzzReadColumn(f *testing.F) {
	// Seed with valid serializations of both layouts, with and without
	// NULLs, so mutation explores near-valid inputs.
	for _, layout := range []Layout{VBP, HBP} {
		col := FromValues(layout, 9, []uint64{1, 2, 3, 500, 0})
		var buf bytes.Buffer
		if _, err := col.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())

		withNulls := NewColumn(layout, 5)
		withNulls.Append(7)
		withNulls.AppendNull()
		buf.Reset()
		if _, err := withNulls.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("BPAG garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := ReadColumn(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must behave like a column.
		if col.Len() < 0 {
			t.Fatal("negative length")
		}
		all := col.All()
		_ = must(col.SumContext(bg, all))
		_, _ = must2(col.MinContext(bg, all))
		_, _ = must2(col.MedianContext(bg, all))
		if col.Len() > 0 {
			_ = col.Value(0)
		}
	})
}

// FuzzReadTable mirrors FuzzReadColumn for the table container.
func FuzzReadTable(f *testing.F) {
	tbl := NewTable()
	tbl.AddColumn("a", VBP, 4)
	tbl.AddColumn("b", HBP, 8)
	tbl.AppendColumnar(map[string][]uint64{"a": {1, 2}, "b": {3, 4}})
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, name := range got.Columns() {
			col := got.Column(name)
			_ = must(col.SumContext(bg, col.All()))
		}
	})
}

// FuzzReadPartitioned covers the partitioned-store reader and its two
// accepted containers (BPSH and the flat table file it adopts): arbitrary
// bytes must come back as an error or as a store whose aggregates run,
// never as a panic, and a header must not be able to make the reader
// allocate far beyond what the input could hold.
func FuzzReadPartitioned(f *testing.F) {
	st := NewShardedTable(3)
	st.AddColumn("a", VBP, 4)
	st.AddColumn("b", HBP, 8)
	st.AppendColumnar(map[string][]uint64{"a": {1, 2, 3, 4, 5}, "b": {6, 7, 8, 9, 10}})
	var sharded, flat bytes.Buffer
	if _, err := st.WriteTo(&sharded); err != nil {
		f.Fatal(err)
	}
	tbl := NewTable()
	tbl.AddColumn("a", VBP, 4)
	tbl.AppendColumnar(map[string][]uint64{"a": {1, 2}})
	if _, err := tbl.WriteTo(&flat); err != nil {
		f.Fatal(err)
	}
	for _, valid := range [][]byte{sharded.Bytes(), flat.Bytes()} {
		f.Add(valid)
		for _, cut := range []int{3, 4, 17, len(valid) / 2, len(valid) - 1} {
			f.Add(valid[:cut])
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadPartitioned(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The constant covers the bufio window, one name buffer (≤ 64 KiB)
		// and the one readWords call a lying size can start before EOF
		// (≤ 512 KiB). The multiple is set by fixed per-column structures,
		// not by data: a 64-group column costs ~2.6 KiB of group headers
		// against a schema entry of ten bytes.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); alloc > limit {
			t.Fatalf("ReadPartitioned allocated %d bytes for a %d-byte input (limit %d)", alloc, len(data), limit)
		}
		if err != nil {
			return
		}
		if got.Rows() < 0 {
			t.Fatal("negative row count")
		}
		for _, name := range got.Columns() {
			_, _ = got.Query().SumContext(nil, name)
			_, _ = must2(got.Query().MinContext(bg, name))
			_, _ = must2(got.Query().MedianContext(bg, name))
		}
	})
}
