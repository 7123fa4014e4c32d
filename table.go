package bpagg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bpagg/internal/bitvec"
	"bpagg/internal/rangeidx"
)

// Table is a collection of equal-length bit-packed columns — the
// denormalized "wide table" the paper assumes (§III, following WideTable
// [11]): joins and group-bys are materialized away up front, so queries are
// conjunctive filter scans followed by aggregation over single columns.
type Table struct {
	names []string
	cols  map[string]*Column
	rows  int

	// Range-index state (range.go). mu serializes appends with index
	// maintenance; epoch is the atomically published immutable snapshot
	// set range/window queries pin; ridx holds the per-column prefix-sum
	// builders, nil until the first Range/Window call enables them.
	mu    sync.Mutex
	epoch atomic.Pointer[tableEpoch]
	ridx  map[string]*rangeidx.Builder

	// store is the table served as its one-part store (see partition),
	// published like epoch; nil until the first query builds it.
	store atomic.Pointer[ShardedTable]
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{cols: make(map[string]*Column)}
}

// NewTableFromColumns assembles a table from independently built columns
// (the path loaders take when rows arrive column-wise with NULLs). All
// columns must have equal length; names and cols are parallel.
func NewTableFromColumns(names []string, cols []*Column) *Table {
	if len(names) != len(cols) {
		panic(fmt.Sprintf("bpagg: %d names for %d columns", len(names), len(cols)))
	}
	if len(cols) == 0 {
		panic("bpagg: table needs at least one column")
	}
	t := NewTable()
	n := cols[0].Len()
	for i, name := range names {
		if _, dup := t.cols[name]; dup {
			panic(fmt.Sprintf("bpagg: duplicate column %q", name))
		}
		if cols[i].Len() != n {
			panic(fmt.Sprintf("bpagg: column %q has %d rows, want %d", name, cols[i].Len(), n))
		}
		t.cols[name] = cols[i]
		t.names = append(t.names, name)
	}
	t.rows = n
	return t
}

// AddColumn registers an empty column. It panics if the name is taken or
// rows have already been appended.
func (t *Table) AddColumn(name string, layout Layout, bitWidth int, opts ...ColumnOption) *Column {
	if _, dup := t.cols[name]; dup {
		panic(fmt.Sprintf("bpagg: duplicate column %q", name))
	}
	if t.rows != 0 {
		panic("bpagg: AddColumn after rows were appended")
	}
	c := NewColumn(layout, bitWidth, opts...)
	t.cols[name] = c
	t.names = append(t.names, name)
	if st := t.store.Load(); st != nil { // the one-part store follows the schema
		st.addSpec(name, layout, bitWidth, opts)
		st.bounds[0] = append(st.bounds[0], shardBounds{})
	}
	return c
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column { return t.cols[name] }

// Columns returns the column names in registration order.
func (t *Table) Columns() []string {
	return append([]string(nil), t.names...)
}

// Rows returns the number of rows in the table.
func (t *Table) Rows() int { return t.rows }

// AppendRow appends one row; vals must provide a code for every column.
// The row is validated in full — presence and bit width of every value —
// before any column is touched, so a panic never leaves columns at
// unequal lengths.
func (t *Table) AppendRow(vals map[string]uint64) {
	if len(t.names) == 0 {
		panic("bpagg: AppendRow on a table with no columns")
	}
	if len(vals) != len(t.names) {
		panic(fmt.Sprintf("bpagg: row has %d values, table has %d columns", len(vals), len(t.names)))
	}
	for _, name := range t.names {
		v, ok := vals[name]
		if !ok {
			panic(fmt.Sprintf("bpagg: row missing column %q", name))
		}
		t.cols[name].checkFits(name, v)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.names {
		t.cols[name].Append(vals[name])
	}
	t.rows++
	t.growStoreLocked(func(j int, b *shardBounds) { b.note(vals[t.names[j]]) })
	t.publishEpochLocked()
}

// AppendColumnar appends many rows given per-column value slices of equal
// length — the natural bulk-load path for columnar data. Like AppendRow it
// validates the whole load (column set, equal lengths, bit width of every
// value) before mutating anything; a rejected load leaves Rows() and every
// column length unchanged. Loads into a table with no columns are rejected
// because they carry no row count.
func (t *Table) AppendColumnar(vals map[string][]uint64) {
	if len(t.names) == 0 {
		panic("bpagg: AppendColumnar on a table with no columns")
	}
	if len(vals) != len(t.names) {
		panic(fmt.Sprintf("bpagg: load has %d columns, table has %d", len(vals), len(t.names)))
	}
	n := -1
	for _, name := range t.names {
		col, ok := vals[name]
		if !ok {
			panic(fmt.Sprintf("bpagg: load missing column %q", name))
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			panic(fmt.Sprintf("bpagg: column %q has %d values, want %d", name, len(col), n))
		}
	}
	for _, name := range t.names {
		c := t.cols[name]
		for _, v := range vals[name] {
			c.checkFits(name, v)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.names {
		t.cols[name].Append(vals[name]...)
	}
	t.rows += n
	t.growStoreLocked(func(j int, b *shardBounds) {
		for _, v := range vals[t.names[j]] {
			b.note(v)
		}
	})
	t.publishEpochLocked()
}

// Query starts a query over the table: a query over its one-part store
// (see partition), so a flat table answers every statement, range and
// window the way a sharded store does.
func (t *Table) Query() *Query {
	return t.partition().Query()
}

// partition returns the table served as a one-part store: its only part
// is the table itself, with the table's row count and catalog bounds. The
// store is built once, under the append lock, and published atomically,
// the way pinEpoch publishes an epoch; the table's appends keep its row
// count and bounds current from then on (growStoreLocked).
func (t *Table) partition() *ShardedTable {
	if st := t.store.Load(); st != nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.store.Load(); st != nil {
		return st
	}
	st := NewShardedTable(max(t.rows, 1))
	for _, name := range t.names {
		c := t.cols[name]
		st.addSpec(name, c.layout, c.k, []ColumnOption{WithGroupBits(c.GroupBits())})
	}
	st.flat, st.shards, st.bounds, st.rows = t, []*Table{t}, [][]shardBounds{computeBounds(t)}, t.rows
	t.store.Store(st)
	return st
}

// growStoreLocked keeps the one-part store, once built, current with an
// append that has landed: note folds the appended values of column j into
// its bounds, and the row count and part size follow the table's. Caller
// holds t.mu.
func (t *Table) growStoreLocked(note func(j int, b *shardBounds)) {
	st := t.store.Load()
	if st == nil {
		return
	}
	for j := range t.names {
		note(j, &st.bounds[0][j])
	}
	st.rows, st.shardRows = t.rows, max(t.rows, 1)
}

// queryState is what the fan-out keeps per part of a store: the part's
// recorded clauses, the selection they materialize into, the options and
// the collector. It serves one goroutine at a time.
type queryState struct {
	t       *Table
	clauses []whereClause
	applied int // clauses already folded into sel
	sel     *Bitmap
	execs   []ExecOption
	stats   *StatsCollector
}

// flatView is a part's engine (DESIGN.md §7): the part's query state,
// optionally cut to a local row range, under its statement's plan, which
// the fan-out hands every call of the statement. eval (table_ctx.go) runs
// each call on the route the plan chose and groupBy (groupby.go) builds
// the part's partition.
type flatView struct {
	*queryState
	*plan
	lo, hi int     // rows [lo, hi), when ranged
	cut    *Bitmap // the range's selection, cut by the first call that needs it for all the others
}

// where records a conjunct whose column and constants were validated.
func (s *queryState) where(column string, p Predicate) {
	s.clauses = append(s.clauses, whereClause{name: column, col: s.t.cols[column], pred: p})
}

// statsInto points the state's scans and aggregates at rec; nil is a
// no-op.
func (s *queryState) statsInto(rec *StatsCollector) {
	if rec != nil {
		s.stats = rec
		s.execs = append(s.execs, CollectStats(rec))
	}
}

// selection materializes and returns the state's kept filter bitmap (all
// rows if no Where clause was added): pending clauses run as bit-parallel
// scans, recorded through the stats collector, and intersect in clause
// order. Materializing disables fusion for subsequent aggregates.
func (s *queryState) selection() *Bitmap {
	if s.sel == nil {
		if len(s.clauses) > 0 {
			cl := s.clauses[0]
			s.sel = cl.col.ScanStats(cl.pred, s.stats)
			s.applied = 1
		} else {
			s.sel = &Bitmap{b: bitvec.NewFull(s.t.rows)}
		}
	}
	for ; s.applied < len(s.clauses); s.applied++ {
		cl := s.clauses[s.applied]
		s.sel.And(cl.col.ScanStats(cl.pred, s.stats))
	}
	return s.sel
}

// selected is the view's selection: the kept one when unranged, which
// later statements share, else the range's row mask, intersected with the
// kept one when there is a clause, cut once per view: a ranged part cuts
// iff one of its calls is not served by the index.
func (v *flatView) selected() *Bitmap {
	switch {
	case v.cut != nil:
		return v.cut
	case v.ranged:
		v.cut = rangeBitmap(v.t.rows, v.lo, v.hi)
		if len(v.clauses) > 0 {
			v.cut.And(v.selection())
		}
		return v.cut
	}
	return v.selection()
}
