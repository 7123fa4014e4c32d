package bpagg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"bpagg/internal/hbp"
)

// Sharded tables serialize as a versioned container around the existing
// flat table framing: a schema header, then each shard as a complete
// table stream (so every shard round-trips through the validated
// ReadTable path, zones and caches included), then the shard catalog.
//
//	sharded := magic version shardRows shardCount colCount
//	           (nameLen name layout k tau)*         // schema
//	           table*                               // one flat framing per shard
//	           (any min max)*                       // catalog, shard-major
//
// The catalog is redundant with the data by construction; readers
// recompute the bounds from the loaded shards and reject a file whose
// stored catalog disagrees — a corruption check, not a trust decision.
// Seed-era flat `.bpag` files remain loadable through ReadPartitioned,
// which sniffs the magic and adopts a flat table as a single shard.
const (
	shardMagic     uint32 = 0x42505348 // "BPSH"
	shardIOVersion uint16 = 1
)

// WriteTo serializes the partitioned store. It implements io.WriterTo.
func (st *ShardedTable) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	shards := st.shards
	if st.rows == 0 { // an empty table's one-part store holds one empty part
		shards = nil
	}
	hdr := []any{
		shardMagic, shardIOVersion, uint64(st.shardRows),
		uint32(len(shards)), uint32(len(st.specs)),
	}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	// tau is resolved by the column constructor (defaulted or set via
	// WithGroupBits), so read it off a shard — a throwaway one when empty.
	probe := st.newShard()
	if len(shards) > 0 {
		probe = shards[0]
	}
	for _, sp := range st.specs {
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(sp.name))); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(cw, sp.name); err != nil {
			return cw.n, err
		}
		tau := uint16(probe.Column(sp.name).GroupBits())
		for _, v := range []any{uint8(sp.layout), uint16(sp.bits), tau} {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return cw.n, err
			}
		}
	}
	for _, sh := range shards {
		if _, err := sh.WriteTo(cw); err != nil {
			return cw.n, err
		}
	}
	for s := range shards {
		for j := range st.specs {
			b := st.bounds[s][j]
			anyFlag := uint8(0)
			if b.any {
				anyFlag = 1
			}
			for _, v := range []any{anyFlag, b.min, b.max} {
				if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
					return cw.n, err
				}
			}
		}
	}
	return cw.n, nil
}

// ReadShardedTable deserializes a store written by ShardedTable.WriteTo.
// Every shard passes through the flat ReadTable validation; on top of
// that the reader checks that each shard matches the declared schema
// (names, layouts, widths, bit-group sizes), that all sealed shards are
// exactly full and the tail is not over-full, and that the stored shard
// catalog agrees with bounds recomputed from the data.
func ReadShardedTable(r io.Reader) (*ShardedTable, error) {
	var (
		magic      uint32
		version    uint16
		shardRows  uint64
		shardCount uint32
		colCount   uint32
	)
	for _, p := range []any{&magic, &version, &shardRows, &shardCount, &colCount} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("bpagg: reading sharded header: %w", err)
		}
	}
	if magic != shardMagic {
		return nil, fmt.Errorf("bpagg: bad sharded magic %#x", magic)
	}
	if version != shardIOVersion {
		return nil, fmt.Errorf("bpagg: unsupported sharded version %d", version)
	}
	if shardRows < 1 || shardRows > 1<<56 {
		return nil, fmt.Errorf("bpagg: implausible shard size %d", shardRows)
	}
	if shardCount > 1<<24 || colCount > 1<<20 {
		return nil, fmt.Errorf("bpagg: implausible shard/column counts (%d, %d)", shardCount, colCount)
	}

	st := NewShardedTable(int(shardRows))
	type schemaEntry struct {
		name   string
		layout Layout
		bits   int
		tau    int
	}
	// Grown by append, not sized from the header: colCount is untrusted and
	// every entry costs at least nine input bytes before it is stored.
	var schema []schemaEntry
	for i := uint32(0); i < colCount; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("bpagg: reading schema name length: %w", err)
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("bpagg: implausible column name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return nil, fmt.Errorf("bpagg: reading schema name: %w", err)
		}
		var (
			layout uint8
			k, tau uint16
		)
		for _, p := range []any{&layout, &k, &tau} {
			if err := binary.Read(r, binary.LittleEndian, p); err != nil {
				return nil, fmt.Errorf("bpagg: reading schema entry: %w", err)
			}
		}
		if Layout(layout) != VBP && Layout(layout) != HBP {
			return nil, fmt.Errorf("bpagg: unknown layout %d", layout)
		}
		if k < 1 || k > 64 || tau < 1 || tau > k || Layout(layout) == HBP && tau > hbp.MaxTau {
			return nil, fmt.Errorf("bpagg: implausible schema widths (k=%d tau=%d)", k, tau)
		}
		se := schemaEntry{string(nameBuf), Layout(layout), int(k), int(tau)}
		if _, dup := st.index[se.name]; dup {
			return nil, fmt.Errorf("bpagg: duplicate column %q", se.name)
		}
		st.AddColumn(se.name, se.layout, se.bits, WithGroupBits(se.tau))
		schema = append(schema, se)
	}

	rows := 0
	for s := uint32(0); s < shardCount; s++ {
		sh, err := ReadTable(r)
		if err != nil {
			return nil, fmt.Errorf("bpagg: shard %d: %w", s, err)
		}
		names := sh.Columns()
		if len(names) != len(schema) {
			return nil, fmt.Errorf("bpagg: shard %d has %d columns, schema has %d", s, len(names), len(schema))
		}
		for i, se := range schema {
			if names[i] != se.name {
				return nil, fmt.Errorf("bpagg: shard %d column %d is %q, schema says %q", s, i, names[i], se.name)
			}
			col := sh.Column(se.name)
			if col.Layout() != se.layout || col.BitWidth() != se.bits || col.GroupBits() != se.tau {
				return nil, fmt.Errorf("bpagg: shard %d column %q does not match the schema", s, se.name)
			}
		}
		if s < shardCount-1 && sh.Rows() != int(shardRows) {
			return nil, fmt.Errorf("bpagg: sealed shard %d has %d rows, want %d", s, sh.Rows(), shardRows)
		}
		if sh.Rows() < 1 || sh.Rows() > int(shardRows) {
			return nil, fmt.Errorf("bpagg: shard %d has %d rows, want 1..%d", s, sh.Rows(), shardRows)
		}
		rows += sh.Rows()
		st.shards = append(st.shards, sh)
		st.bounds = append(st.bounds, computeBounds(sh))
	}

	for s := uint32(0); s < shardCount; s++ {
		for j := range schema {
			var (
				anyFlag  uint8
				min, max uint64
			)
			for _, p := range []any{&anyFlag, &min, &max} {
				if err := binary.Read(r, binary.LittleEndian, p); err != nil {
					return nil, fmt.Errorf("bpagg: reading shard catalog: %w", err)
				}
			}
			if anyFlag > 1 {
				return nil, fmt.Errorf("bpagg: bad shard catalog flag %d", anyFlag)
			}
			got := st.bounds[s][j]
			want := shardBounds{min: min, max: max, any: anyFlag == 1}
			if got != want {
				return nil, fmt.Errorf("bpagg: shard %d column %q catalog bounds disagree with data", s, schema[j].name)
			}
		}
	}
	st.rows = rows
	return st, nil
}

// computeBounds derives one shard's catalog row from its column data,
// skipping NULLs (a scan never matches NULL, so NULL rows cannot defeat
// pruning).
func computeBounds(t *Table) []shardBounds {
	names := t.Columns()
	out := make([]shardBounds, len(names))
	for j, name := range names {
		col := t.Column(name)
		all := col.All()
		if lo, ok := col.Min(all); ok {
			hi, _ := col.Max(all)
			out[j] = shardBounds{min: lo, max: hi, any: true}
		}
	}
	return out
}

// ReadPartitioned loads either serialization format: a sharded container
// or a seed-era flat table file, which is served as its one-part store
// (PartitionTable). The shard catalog is computed from the data in both
// cases.
func ReadPartitioned(r io.Reader) (*ShardedTable, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("bpagg: reading magic: %w", err)
	}
	switch binary.LittleEndian.Uint32(head) {
	case shardMagic:
		return ReadShardedTable(br)
	case tableMagic:
		t, err := ReadTable(br)
		if err != nil {
			return nil, err
		}
		if len(t.names) == 0 {
			return nil, fmt.Errorf("bpagg: flat table file has no columns")
		}
		return PartitionTable(t), nil
	default:
		return nil, fmt.Errorf("bpagg: unrecognized magic %#x", binary.LittleEndian.Uint32(head))
	}
}

// PartitionTable returns the table served as its one-part store — the
// store Table.Query runs on — without copying: the table is the store's
// only part, and the table's appends keep the store's row count and
// catalog bounds current. Use ShardTable to split into smaller shards
// instead.
func PartitionTable(t *Table) *ShardedTable {
	if len(t.names) == 0 {
		panic("bpagg: cannot shard a table with no columns")
	}
	return t.partition()
}
