package bpagg

import (
	"context"
	"errors"
	"fmt"
	"runtime"

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
// Appends are shard-local and atomic: the whole load is validated first
// (column set, lengths, bit widths), values stage into the open tail
// shard (rolling over to fresh shards as it fills), and the store's row
// count commits last — the structural fix for the torn-table append
// hazards the flat Table used to have.
type ShardedTable struct {
	shardRows int
	specs     []shardColSpec
	index     map[string]int // column name → specs index
	shards    []*Table
	bounds    [][]shardBounds // bounds[shard][col]
	rows      int

	// flat is the table when the store is a Table's one-part store
	// (Table.partition): its only shard, which the table's own appends
	// grow, and whose epochs a ranged plan pins.
	flat *Table
}

// shardColSpec is the schema entry every shard's column is built from.
type shardColSpec struct {
	name   string
	layout Layout
	bits   int
	opts   []ColumnOption
}

// shardBounds is one shard-catalog cell: the min/max of a shard column's
// non-NULL values. any is false while the cell has no non-NULL value, in
// which case no scan predicate can match and the shard prunes for free.
type shardBounds struct {
	min, max uint64
	any      bool
}

// note folds v into the bounds.
func (b *shardBounds) note(v uint64) {
	if !b.any {
		b.min, b.max, b.any = v, v, true
		return
	}
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
}

// NewShardedTable returns an empty partitioned store whose shards hold at
// most shardRows rows each.
func NewShardedTable(shardRows int) *ShardedTable {
	if shardRows < 1 {
		panic(fmt.Sprintf("bpagg: shard size %d, need at least 1 row per shard", shardRows))
	}
	return &ShardedTable{shardRows: shardRows, index: make(map[string]int)}
}

// AddColumn registers a column on the schema; every current and future
// shard carries it. It panics if the name is taken or rows have already
// been appended, mirroring Table.AddColumn. A table's one-part store adds
// the column to the table.
func (st *ShardedTable) AddColumn(name string, layout Layout, bitWidth int, opts ...ColumnOption) {
	if st.flat != nil {
		st.flat.AddColumn(name, layout, bitWidth, opts...)
		return
	}
	if _, dup := st.index[name]; dup {
		panic(fmt.Sprintf("bpagg: duplicate column %q", name))
	}
	if st.rows != 0 {
		panic("bpagg: AddColumn after rows were appended")
	}
	// Validate the spec eagerly: NewColumn panics on bad widths/options,
	// and the probe column is thrown away.
	NewColumn(layout, bitWidth, opts...)
	st.addSpec(name, layout, bitWidth, opts)
}

// addSpec appends a validated column to the schema.
func (st *ShardedTable) addSpec(name string, layout Layout, bits int, opts []ColumnOption) {
	st.index[name] = len(st.specs)
	st.specs = append(st.specs, shardColSpec{name: name, layout: layout, bits: bits, opts: opts})
}

// Columns returns the column names in registration order.
func (st *ShardedTable) Columns() []string {
	names := make([]string, len(st.specs))
	for i, sp := range st.specs {
		names[i] = sp.name
	}
	return names
}

// Rows returns the committed number of rows across all shards.
func (st *ShardedTable) Rows() int { return st.rows }

// ShardRows returns the per-shard row capacity.
func (st *ShardedTable) ShardRows() int { return st.shardRows }

// NumShards returns the number of shards currently backing the store.
func (st *ShardedTable) NumShards() int { return len(st.shards) }

// spec resolves a column name, or returns -1.
func (st *ShardedTable) spec(name string) int {
	if i, ok := st.index[name]; ok {
		return i
	}
	return -1
}

// newShard builds one empty shard table from the schema.
func (st *ShardedTable) newShard() *Table {
	t := NewTable()
	for _, sp := range st.specs {
		t.AddColumn(sp.name, sp.layout, sp.bits, sp.opts...)
	}
	return t
}

// tailShard returns the open tail shard, appending a fresh one when the
// store is empty or the tail is full.
func (st *ShardedTable) tailShard() *Table {
	if n := len(st.shards); n > 0 && st.shards[n-1].Rows() < st.shardRows {
		return st.shards[n-1]
	}
	st.shards = append(st.shards, st.newShard())
	st.bounds = append(st.bounds, make([]shardBounds, len(st.specs)))
	return st.shards[len(st.shards)-1]
}

// fitsBits reports whether v is representable in k bits — the spec-level
// twin of Column.fits, usable before any shard column exists.
func fitsBits(v uint64, k int) bool {
	return k >= 64 || v>>uint(k) == 0
}

// AppendRow appends one row to the open tail shard; vals must provide a
// code for every column. The row is validated in full before any shard is
// touched, and the store's row count commits last. A table's one-part
// store appends to the table.
func (st *ShardedTable) AppendRow(vals map[string]uint64) {
	if st.flat != nil {
		st.flat.AppendRow(vals)
		return
	}
	if len(st.specs) == 0 {
		panic("bpagg: AppendRow on a table with no columns")
	}
	if len(vals) != len(st.specs) {
		panic(fmt.Sprintf("bpagg: row has %d values, table has %d columns", len(vals), len(st.specs)))
	}
	for _, sp := range st.specs {
		v, ok := vals[sp.name]
		if !ok {
			panic(fmt.Sprintf("bpagg: row missing column %q", sp.name))
		}
		if !fitsBits(v, sp.bits) {
			panic(fmt.Sprintf("bpagg: value %d does not fit column %q (%d bits)", v, sp.name, sp.bits))
		}
	}
	tail := st.tailShard()
	shard := len(st.shards) - 1 // the tail is always the last shard
	tail.AppendRow(vals)
	for j, sp := range st.specs {
		st.bounds[shard][j].note(vals[sp.name])
	}
	st.rows++
}

// AppendColumnar bulk-loads per-column value slices of equal length. The
// whole load is validated before anything mutates; it then splits at
// shard boundaries — the first chunk tops up the open tail shard, the
// rest stage into fresh shards filled by parallel workers — and the
// store's row count commits last. Loads into a store with no columns are
// rejected because they carry no row count. A table's one-part store
// appends to the table.
func (st *ShardedTable) AppendColumnar(vals map[string][]uint64) {
	if st.flat != nil {
		st.flat.AppendColumnar(vals)
		return
	}
	if len(st.specs) == 0 {
		panic("bpagg: AppendColumnar on a table with no columns")
	}
	if len(vals) != len(st.specs) {
		panic(fmt.Sprintf("bpagg: load has %d columns, table has %d", len(vals), len(st.specs)))
	}
	n := -1
	for _, sp := range st.specs {
		col, ok := vals[sp.name]
		if !ok {
			panic(fmt.Sprintf("bpagg: load missing column %q", sp.name))
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			panic(fmt.Sprintf("bpagg: column %q has %d values, want %d", sp.name, len(col), n))
		}
	}
	for _, sp := range st.specs {
		for _, v := range vals[sp.name] {
			if !fitsBits(v, sp.bits) {
				panic(fmt.Sprintf("bpagg: value %d does not fit column %q (%d bits)", v, sp.name, sp.bits))
			}
		}
	}
	if n == 0 {
		return
	}

	// Split the load at shard boundaries. chunk c covers vals[off:off+ln)
	// and lands in shard first+c; chunk 0 may top up the open tail.
	type chunk struct{ off, ln int }
	var chunks []chunk
	first := len(st.shards)
	off := 0
	if len(st.shards) > 0 {
		if room := st.shardRows - st.shards[first-1].Rows(); room > 0 {
			first--
			ln := min(room, n)
			chunks = append(chunks, chunk{0, ln})
			off = ln
		}
	}
	for off < n {
		ln := min(st.shardRows, n-off)
		chunks = append(chunks, chunk{off, ln})
		off += ln
	}
	for len(st.shards) < first+len(chunks) {
		st.shards = append(st.shards, st.newShard())
		st.bounds = append(st.bounds, make([]shardBounds, len(st.specs)))
	}

	// Every chunk targets a distinct shard, so the fan-out is race-free.
	// The load was validated above; a worker error here is an engine bug
	// (or an injected fault) and re-panics like a serial append would.
	err := parallel.ForEachIndexErr(context.Background(), len(chunks), runtime.GOMAXPROCS(0), st,
		func(st *ShardedTable, _ context.Context, c int) error {
			sub := make(map[string][]uint64, len(st.specs))
			for _, sp := range st.specs {
				sub[sp.name] = vals[sp.name][chunks[c].off : chunks[c].off+chunks[c].ln]
			}
			st.shards[first+c].AppendColumnar(sub)
			return nil
		})
	if err != nil {
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
		panic(err)
	}

	for c, ch := range chunks {
		for j, sp := range st.specs {
			b := &st.bounds[first+c][j]
			for _, v := range vals[sp.name][ch.off : ch.off+ch.ln] {
				b.note(v)
			}
		}
	}
	st.rows += n
}

// ShardTable splits a flat table into a ShardedTable with shardRows rows
// per shard, preserving row order, NULLs, and every column's layout, bit
// width, and bit-group size. The shard catalog's bounds are computed from
// the data. The source table is not retained.
func ShardTable(t *Table, shardRows int) *ShardedTable {
	st := NewShardedTable(shardRows)
	names := t.Columns()
	if len(names) == 0 {
		panic("bpagg: cannot shard a table with no columns")
	}
	cols := make([]*Column, len(names))
	for i, name := range names {
		c := t.Column(name)
		cols[i] = c
		st.AddColumn(name, c.Layout(), c.BitWidth(), WithGroupBits(c.GroupBits()))
	}
	for lo := 0; lo < t.Rows(); lo += shardRows {
		hi := min(lo+shardRows, t.Rows())
		shard := st.tailShard()
		sIdx := len(st.shards) - 1
		for j, name := range names {
			src, dst := cols[j], shard.Column(name)
			for i := lo; i < hi; i++ {
				if src.IsNull(i) {
					dst.AppendNull()
				} else {
					v := src.Value(i)
					dst.Append(v)
					st.bounds[sIdx][j].note(v)
				}
			}
		}
		shard.rows = hi - lo
	}
	st.rows = t.Rows()
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
	return sp.layout, sp.bits, nulls, words
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
