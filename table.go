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
// conjunctive filter scans followed by aggregation over single columns. A
// table is also a part of a store: its own one-part store's, or one shard
// of a ShardedTable.
type Table struct {
	*schema
	cols   map[string]*Column
	bounds []shardBounds // the part's catalog cell per column
	rows   int

	// Range-index state (range.go). mu serializes land with index
	// maintenance; epoch is the atomically published immutable snapshot
	// set range/window queries pin; ridx holds the per-column prefix-sum
	// builders, nil until the first Range/Window call enables them.
	mu    sync.Mutex
	epoch atomic.Pointer[tableEpoch]
	ridx  map[string]*rangeidx.Builder

	// store is the table served as its one-part store (see partition),
	// published like epoch; nil until the first append or query builds it.
	store atomic.Pointer[ShardedTable]
}

// schema is a store's column set in registration order, which every load
// is checked against. A table and its one-part store share one, as do a
// sharded store and the parts it grows.
type schema struct {
	names []string
	specs []*Column // column j's empty template: layout, width, bit-group size
	index map[string]int
}

// add registers a column. It panics if the name is taken, if rows have
// been appended, or (through NewColumn) on a bad width or option.
func (s *schema) add(name string, layout Layout, bits int, opts []ColumnOption, rows int) {
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("bpagg: duplicate column %q", name))
	}
	if rows != 0 {
		panic("bpagg: AddColumn after rows were appended")
	}
	s.register(name, NewColumn(layout, bits, opts...))
}

// register appends a column whose spec was validated.
func (s *schema) register(name string, spec *Column) {
	s.index[name] = len(s.names)
	s.names = append(s.names, name)
	s.specs = append(s.specs, spec)
}

// spec resolves a column name, or returns -1.
func (s *schema) spec(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// check panics unless every value fits column j's width, naming the
// column: Column.fits's rule, checked once per value before any part is
// touched.
func (s *schema) check(j int, vals ...uint64) {
	sp := s.specs[j]
	for _, v := range vals {
		if !sp.fits(v) {
			panic(fmt.Sprintf("bpagg: value %d does not fit column %q (%d bits)", v, s.names[j], sp.k))
		}
	}
}

// row checks a one-row append — a value for every column and no other,
// each within its width — and returns it as one-value columns in schema
// order.
func (s *schema) row(vals map[string]uint64) [][]uint64 {
	if len(s.names) == 0 {
		panic("bpagg: AppendRow on a table with no columns")
	}
	if len(vals) != len(s.names) {
		panic(fmt.Sprintf("bpagg: row has %d values, table has %d columns", len(vals), len(s.names)))
	}
	row, out := make([]uint64, len(s.names)), make([][]uint64, len(s.names))
	for j, name := range s.names {
		v, ok := vals[name]
		if !ok {
			panic(fmt.Sprintf("bpagg: row missing column %q", name))
		}
		s.check(j, v)
		row[j] = v
		out[j] = row[j : j+1]
	}
	return out
}

// load checks a columnar load — every column and no other, at equal
// lengths, each value within its width — and returns its columns in
// schema order.
func (s *schema) load(vals map[string][]uint64) [][]uint64 {
	if len(s.names) == 0 {
		panic("bpagg: AppendColumnar on a table with no columns")
	}
	if len(vals) != len(s.names) {
		panic(fmt.Sprintf("bpagg: load has %d columns, table has %d", len(vals), len(s.names)))
	}
	out := make([][]uint64, len(s.names))
	for j, name := range s.names {
		col, ok := vals[name]
		if !ok {
			panic(fmt.Sprintf("bpagg: load missing column %q", name))
		}
		if j > 0 && len(col) != len(out[0]) {
			panic(fmt.Sprintf("bpagg: column %q has %d values, want %d", name, len(col), len(out[0])))
		}
		out[j] = col
	}
	for j, col := range out {
		s.check(j, col...)
	}
	return out
}

// NewTable returns an empty table.
func NewTable() *Table {
	return newPart(&schema{index: make(map[string]int)})
}

// newPart returns an empty part of a store with schema s.
func newPart(s *schema) *Table {
	t := &Table{schema: s, cols: make(map[string]*Column)}
	t.build()
	return t
}

// build gives the part an empty column for each schema column it lacks.
func (t *Table) build() {
	for j := len(t.bounds); j < len(t.names); j++ {
		sp := t.specs[j]
		t.cols[t.names[j]] = NewColumn(sp.layout, sp.k, WithGroupBits(sp.GroupBits()))
		t.bounds = append(t.bounds, shardBounds{})
	}
}

// adopt registers a built column under name, with its catalog bounds.
func (t *Table) adopt(name string, c *Column) {
	t.register(name, NewColumn(c.layout, c.k, WithGroupBits(c.GroupBits())))
	t.cols[name] = c
	var b shardBounds
	all := c.All()
	if lo, ok := c.Min(all); ok { // NULLs skipped, as land skips them
		hi, _ := c.Max(all)
		b = shardBounds{min: lo, max: hi, any: true}
	}
	t.bounds = append(t.bounds, b)
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
		if t.spec(name) >= 0 {
			panic(fmt.Sprintf("bpagg: duplicate column %q", name))
		}
		if cols[i].Len() != n {
			panic(fmt.Sprintf("bpagg: column %q has %d rows, want %d", name, cols[i].Len(), n))
		}
		t.adopt(name, cols[i])
	}
	t.rows = n
	return t
}

// AddColumn registers an empty column. It panics if the name is taken or
// rows have already been appended.
func (t *Table) AddColumn(name string, layout Layout, bitWidth int, opts ...ColumnOption) *Column {
	t.add(name, layout, bitWidth, opts, t.rows)
	t.build()
	return t.cols[name]
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
// It is an append to the table's one-part store: the row is validated in
// full — presence and bit width of every value — before any column is
// touched, so a panic never leaves columns at unequal lengths.
func (t *Table) AppendRow(vals map[string]uint64) {
	t.partition().AppendRow(vals)
}

// AppendColumnar appends many rows given per-column value slices of equal
// length — the natural bulk-load path for columnar data. Like AppendRow it
// is an append to the one-part store, and validates the whole load
// (column set, equal lengths, bit width of every value) before mutating
// anything; a rejected load leaves Rows() and every column length
// unchanged. Loads into a table with no columns are rejected because they
// carry no row count.
func (t *Table) AppendColumnar(vals map[string][]uint64) {
	t.partition().AppendColumnar(vals)
}

// land appends rows [lo, hi) of a checked load to the part, under its
// lock: vals[j] holds column j's values, and null, when not nil, reports
// which of them are NULL. It notes the part's catalog bounds (NULLs
// skipped), advances its row count and publishes its epoch. It is the one
// place a row reaches a part.
func (t *Table) land(vals [][]uint64, lo, hi int, null func(j, i int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j, name := range t.names {
		c, b := t.cols[name], &t.bounds[j]
		if null == nil {
			c.Append(vals[j][lo:hi]...)
			b.note(vals[j][lo:hi]...)
			continue
		}
		for i := lo; i < hi; i++ {
			if null(j, i) {
				c.AppendNull()
			} else {
				c.Append(vals[j][i])
				b.note(vals[j][i])
			}
		}
	}
	t.rows += hi - lo
	t.publishEpochLocked()
}

// Query starts a query over the table: a query over its one-part store
// (see partition), so a flat table answers every statement, range and
// window the way a sharded store does.
func (t *Table) Query() *Query {
	return t.partition().Query()
}

// partition returns the table served as a one-part store: its only part
// is the table itself, and it shares the table's schema. The store is
// built once, under the part's lock, and published atomically, the way
// pinEpoch publishes an epoch; every append to the table goes through it.
func (t *Table) partition() *ShardedTable {
	if st := t.store.Load(); st != nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.store.Load(); st != nil {
		return st
	}
	st := &ShardedTable{schema: t.schema, shardRows: onePart, shards: []*Table{t}, rows: t.rows}
	t.store.Store(st)
	return st
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
