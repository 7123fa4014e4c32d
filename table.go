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
	t.publishEpochLocked()
}

// Query starts a query over the table.
func (t *Table) Query() *Query {
	return &Query{flatView{queryState: &queryState{t: t}}}
}

// Query is a conjunctive filter over table columns followed by aggregation.
// Where clauses are recorded, not executed: when an aggregate can fuse
// (see query_fused.go) each segment's filter word flows straight from the
// predicate lanes into the aggregate kernel and no filter bitmap ever
// exists. Otherwise the clauses run as independent bit-parallel scans
// whose selections intersect (paper §II-E), and the aggregate runs on the
// combined filter bit vector — the two paths are bit-identical.
//
// The builders below are Query's own; Selection, GroupBy and the
// aggregates are flatView's, promoted — RangeQuery shares them.
type Query struct {
	flatView
}

// queryState is what a Query owns and its range views share (and what the
// shard fan-out keeps per shard): the recorded clauses, the selection
// they materialize into, the options and the collector. It serves one
// goroutine at a time.
type queryState struct {
	t       *Table
	clauses []whereClause
	applied int // clauses already folded into sel
	sel     *Bitmap
	execs   []ExecOption
	stats   *StatsCollector
}

// flatView is the one implementation of every flat aggregate (DESIGN.md
// §7): a query's state, optionally cut to a row range. eval (table_ctx.go)
// chooses the engine; every public aggregate is a wrapper over it.
type flatView struct {
	*queryState
	ranged bool
	lo, hi int         // rows [lo, hi), when ranged
	ep     *tableEpoch // set by a window sweep, which pins one epoch for all its windows
}

// Where adds a conjunctive predicate on the named column and returns the
// query for chaining. The clause is validated here (unknown columns and
// oversized constants panic immediately, as they always did) but executes
// lazily — at the next non-fusible aggregate or Selection call.
func (q *Query) Where(column string, p Predicate) *Query {
	col := q.t.cols[column]
	if col == nil {
		panic(fmt.Sprintf("bpagg: unknown column %q", column))
	}
	checkPredFits(p, col.k)
	q.where(column, p)
	return q
}

// where records a conjunct whose column and constants were validated.
func (s *queryState) where(column string, p Predicate) {
	s.clauses = append(s.clauses, whereClause{name: column, col: s.t.cols[column], pred: p})
}

// With sets execution options (Parallel, Access) for the aggregates.
func (q *Query) With(opts ...ExecOption) *Query {
	q.execs = append(q.execs, opts...)
	return q
}

// WithStats enables per-query statistics collection: every filter scan,
// GroupBy walk, and aggregate (fused or two-phase) records into the
// query's collector, readable at any point via Stats. Because Where
// clauses execute lazily, scans are captured regardless of whether
// WithStats comes before or after them — only work already executed is
// missed.
func (q *Query) WithStats() *Query {
	if q.stats == nil {
		q.statsInto(NewStatsCollector())
	}
	return q
}

// WithStatsInto directs the query's statistics into a caller-supplied
// collector (which may be shared across queries) instead of a fresh one.
// Stats then reports that collector's running totals.
func (q *Query) WithStatsInto(rec *StatsCollector) *Query {
	q.statsInto(rec)
	return q
}

// statsInto points the state's scans and aggregates at rec; nil is a
// no-op.
func (s *queryState) statsInto(rec *StatsCollector) {
	if rec != nil {
		s.stats = rec
		s.execs = append(s.execs, CollectStats(rec))
	}
}

// Stats returns a snapshot of the counters collected so far; zero when
// WithStats was not called.
func (q *Query) Stats() ExecStats {
	return q.stats.Snapshot()
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

// Selection materializes and returns the filter bitmap. A Query's is the
// kept one — later aggregates run two-phase on it, and the caller may
// combine it with arbitrary bitmaps first. A RangeQuery's is a fresh
// intersection of it with the range's row mask, which the caller owns;
// the query's own selection is left untouched.
func (v *flatView) Selection() *Bitmap {
	sel := v.selection()
	if v.ranged {
		sel = sel.Clone().And(rangeBitmap(v.t.rows, v.lo, v.hi))
	}
	return sel
}

// CountRows returns the number of rows passing the filter.
func (v *flatView) CountRows() uint64 {
	cnt, err := v.CountRowsContext(nil)
	fusedMust(err)
	return cnt
}

// Count counts selected non-NULL rows of the named column.
func (v *flatView) Count(column string) uint64 {
	cnt, err := v.CountContext(nil, column)
	fusedMust(err)
	return cnt
}

// Sum aggregates SUM over the named column. A sum exceeding uint64 panics
// with *OverflowError; use SumContext to receive it as an error.
func (v *flatView) Sum(column string) uint64 {
	sum, err := v.SumContext(nil, column)
	fusedMust(err)
	return sum
}

// Min aggregates MIN over the named column; ok is false when no row
// qualifies.
func (v *flatView) Min(column string) (uint64, bool) {
	val, ok, err := v.MinContext(nil, column)
	fusedMust(err)
	return val, ok
}

// Max aggregates MAX over the named column.
func (v *flatView) Max(column string) (uint64, bool) {
	val, ok, err := v.MaxContext(nil, column)
	fusedMust(err)
	return val, ok
}

// Avg aggregates AVG over the named column; ok is false when no row
// qualifies.
func (v *flatView) Avg(column string) (float64, bool) {
	val, ok, err := v.AvgContext(nil, column)
	fusedMust(err)
	return val, ok
}

// Median aggregates the lower MEDIAN over the named column.
func (v *flatView) Median(column string) (uint64, bool) {
	val, ok, err := v.MedianContext(nil, column)
	fusedMust(err)
	return val, ok
}

// Rank returns the r-th smallest selected value of the named column.
func (v *flatView) Rank(column string, r uint64) (uint64, bool) {
	val, ok, err := v.RankContext(nil, column, r)
	fusedMust(err)
	return val, ok
}

// Quantile returns the q-quantile (nearest rank) of the named column.
func (v *flatView) Quantile(column string, quantile float64) (uint64, bool) {
	val, ok, err := v.QuantileContext(nil, column, quantile)
	fusedMust(err)
	return val, ok
}
