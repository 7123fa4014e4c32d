package bpagg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"bpagg/internal/parallel"
)

// ShardedTable is the partitioned twin of Table: the same column schema
// replicated across fixed-size horizontal shards, each shard a complete
// Table with its own per-segment zone maps and aggregate caches. A shard
// catalog keeps per-shard per-column min/max bounds, so a query fans out
// only to shards whose bounds can satisfy every predicate — shard pruning
// feeding the existing zone pruning — and merges per-shard results in
// shard order, which keeps every aggregate bit-identical to the flat
// engine at any thread count.
//
// Appends are atomic and serialised by the store's lock: the whole load is
// checked against the schema first (column set, lengths, bit widths),
// then lands on the open tail shard (rolling over to fresh shards as it
// fills), and the store's row count commits last.
type ShardedTable struct {
	*schema
	mu        sync.Mutex // serialises appends
	shardRows int        // onePart for a table's one-part store
	shards    []*Table   // each part keeps its own catalog bounds
	rows      int
}

// onePart is the part size of a table's one-part store (Table.partition):
// its one part, the table, never rolls over.
const onePart = math.MaxInt

// shardBounds is one shard-catalog cell: the min/max of a shard column's
// non-NULL values. any is false while the cell has no non-NULL value, in
// which case no scan predicate can match and the shard prunes for free.
type shardBounds struct {
	min, max uint64
	any      bool
}

// note folds vs into the bounds.
func (b *shardBounds) note(vs ...uint64) {
	if len(vs) == 0 {
		return
	}
	lo, hi := vs[0], vs[0]
	if b.any {
		lo, hi = b.min, b.max
	}
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	*b = shardBounds{min: lo, max: hi, any: true}
}

// NewShardedTable returns an empty partitioned store whose shards hold at
// most shardRows rows each.
func NewShardedTable(shardRows int) *ShardedTable {
	if shardRows < 1 {
		panic(fmt.Sprintf("bpagg: shard size %d, need at least 1 row per shard", shardRows))
	}
	return &ShardedTable{schema: &schema{index: make(map[string]int)}, shardRows: shardRows}
}

// AddColumn registers a column on the schema; every current and future
// shard carries it. It panics if the name is taken or rows have already
// been appended, mirroring Table.AddColumn. Only a table's one-part store
// has a part before its first row: the column is added to the table.
func (st *ShardedTable) AddColumn(name string, layout Layout, bitWidth int, opts ...ColumnOption) {
	st.add(name, layout, bitWidth, opts, st.rows)
	for _, p := range st.shards {
		p.build()
	}
}

// Columns returns the column names in registration order.
func (st *ShardedTable) Columns() []string {
	return append([]string(nil), st.names...)
}

// Rows returns the committed number of rows across all shards.
func (st *ShardedTable) Rows() int { return st.rows }

// ShardRows returns the per-shard row capacity; a table's one-part store,
// which never rolls over, reports its row count (at least 1).
func (st *ShardedTable) ShardRows() int {
	if st.shardRows == onePart {
		return max(st.rows, 1)
	}
	return st.shardRows
}

// NumShards returns the number of shards currently backing the store.
func (st *ShardedTable) NumShards() int { return len(st.shards) }

// AppendRow appends one row to the open tail shard; vals must provide a
// code for every column. The row is validated in full before any shard is
// touched, and the store's row count commits last.
func (st *ShardedTable) AppendRow(vals map[string]uint64) {
	st.append(st.row(vals), nil)
}

// AppendColumnar bulk-loads per-column value slices of equal length. The
// whole load is validated before anything mutates; it then splits at
// shard boundaries — the first piece tops up the open tail shard, the
// rest fill fresh shards in parallel — and the store's row count commits
// last. Loads into a store with no columns are rejected because they
// carry no row count.
func (st *ShardedTable) AppendColumnar(vals map[string][]uint64) {
	st.append(st.load(vals), nil)
}

// piece is the rows [lo, hi) of a load that land on one part.
type piece struct {
	part   *Table
	lo, hi int
}

// append lands a checked load (vals[j] holds column j's values; null, when
// not nil, reports the NULL ones) under the store's lock. It splits the
// load at part boundaries — the first piece tops up the open tail part,
// the rest fill fresh ones — lands every piece on its part, in parallel,
// and commits the row count last.
func (st *ShardedTable) append(vals [][]uint64, null func(j, i int) bool) {
	n := len(vals[0])
	if n == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var pieces []piece
	lo := 0
	if k := len(st.shards); k > 0 && st.shards[k-1].rows < st.shardRows {
		lo = min(st.shardRows-st.shards[k-1].rows, n)
		pieces = append(pieces, piece{st.shards[k-1], 0, lo})
	}
	for ; lo < n; lo += st.shardRows {
		p := newPart(st.schema)
		st.shards = append(st.shards, p)
		pieces = append(pieces, piece{p, lo, min(lo+st.shardRows, n)})
	}

	// Every piece targets a distinct part. The load was checked; a worker
	// error here is an engine bug (or an injected fault) and re-panics
	// like a serial append would.
	err := parallel.ForEachIndexErr(context.Background(), len(pieces), runtime.GOMAXPROCS(0), pieces,
		func(pieces []piece, _ context.Context, i int) error {
			pc := pieces[i]
			pc.part.land(vals, pc.lo, pc.hi, null)
			return nil
		})
	if err != nil {
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
		panic(err)
	}
	st.rows += n
}

// ShardTable splits a flat table into a ShardedTable with shardRows rows
// per shard, preserving row order, NULLs, and every column's layout, bit
// width, and bit-group size. Each shard is landed like an append, which
// notes its catalog bounds. The source table is not retained.
func ShardTable(t *Table, shardRows int) *ShardedTable {
	st := NewShardedTable(shardRows)
	if len(t.names) == 0 {
		panic("bpagg: cannot shard a table with no columns")
	}
	cols := make([]*Column, len(t.names))
	for j, name := range t.names {
		sp := t.specs[j]
		st.AddColumn(name, sp.layout, sp.k, WithGroupBits(sp.GroupBits()))
		cols[j] = t.cols[name]
	}
	vals := make([][]uint64, len(cols))
	for lo := 0; lo < t.rows; lo += shardRows {
		for j, c := range cols {
			vals[j] = vals[j][:0]
			for i := lo; i < min(lo+shardRows, t.rows); i++ {
				vals[j] = append(vals[j], c.Value(i))
			}
		}
		st.append(vals, func(j, i int) bool { return cols[j].IsNull(lo + i) })
	}
	return st
}

// ColumnInfo reports the named column's schema entry and its aggregate
// stats across every shard: total NULL count and total backing words. It
// panics on an unknown column, mirroring Table.Column callers.
func (st *ShardedTable) ColumnInfo(name string) (layout Layout, bits, nulls, words int) {
	idx := st.spec(name)
	if idx < 0 {
		panic(fmt.Sprintf("bpagg: unknown column %q", name))
	}
	sp := st.specs[idx]
	for _, sh := range st.shards {
		c := sh.Column(name)
		nulls += c.NullCount()
		words += c.MemoryWords()
	}
	return sp.layout, sp.k, nulls, words
}

// MemoryWords reports the number of 64-bit words backing all shards.
func (st *ShardedTable) MemoryWords() int {
	total := 0
	for _, sh := range st.shards {
		for _, name := range sh.Columns() {
			total += sh.Column(name).MemoryWords()
		}
	}
	return total
}
