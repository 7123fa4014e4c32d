package bpagg

import "testing"

// Exercise the small accessors the bigger scenario tests route around.
func TestAccessorSurface(t *testing.T) {
	m := NewBitmap(10)
	if m.Len() != 10 {
		t.Errorf("Bitmap.Len = %d", m.Len())
	}
	m.Set(3)
	m.Clear(3)
	if m.Get(3) {
		t.Error("Clear failed")
	}

	cols := []*Column{FromValues(VBP, 8, []uint64{1, 2}), FromValues(VBP, 8, []uint64{3, 4})}
	tbl := NewTableFromColumns([]string{"a", "b"}, cols)
	if tbl.Rows() != 2 || tbl.Query().Sum("b") != 7 {
		t.Error("NewTableFromColumns wrong")
	}
	func() {
		defer func() { recover() }()
		NewTableFromColumns([]string{"x"}, nil)
		t.Error("mismatched names/cols did not panic")
	}()
	func() {
		defer func() { recover() }()
		NewTableFromColumns([]string{"a", "a"}, cols)
		t.Error("duplicate name did not panic")
	}()
	func() {
		defer func() { recover() }()
		NewTableFromColumns([]string{"a", "b"},
			[]*Column{FromValues(VBP, 8, []uint64{1}), FromValues(VBP, 8, []uint64{1, 2})})
		t.Error("ragged columns did not panic")
	}()

	col := NewColumn(VBP, 8)
	col.Append(1)
	if col.IsNull(0) || col.NullCount() != 0 {
		t.Error("null accessors on null-free column wrong")
	}
	func() {
		defer func() { recover() }()
		col.IsNull(5)
		t.Error("IsNull out of range did not panic")
	}()
}
