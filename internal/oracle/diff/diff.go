// Package diff is the differential harness that drives the real engine
// and the naive oracle (package oracle) over the same adversarial tables
// and demands bit-identical answers — the paper's §V methodology of
// validating SWAR kernels against scalar recomputation, built into the
// repo permanently (DESIGN.md §11).
//
// It is one sweep over one product of axes. A Case pins one table (layout,
// bit width, bit-group size τ, data with optional NULLs, a second
// predicate column, one or two grouping columns, and post-build appends
// that land mid-segment), a predicate conjunction, and the cells it runs:
//
//	store shape: the flat table {fresh, rebuilt, reloaded}, and split and
//	             reloaded sharded stores at the case's shard sizes ×
//	row range:   none, or the Range probes and the Window shapes ×
//	key tier:    none, direct, hashed, or grown past 2^16 keys ×
//	class:       scalar, grouped, ranked
//
// each at every thread count. Cases (gen.go) generates them, expect
// (expect.go) computes the oracle's answers once per selection, and Check
// (run.go) drives every cell through the Go API — and through sqlmini when
// the case can be written in SQL. A disagreement returns an error naming
// the exact cell, so the shape can be replayed as a regression test.
//
// The oracle is also the arbiter for overflow: when a true SUM does not
// fit in uint64, the engine must refuse with *bpagg.OverflowError carrying
// the exact 128-bit total (and, for a grouped aggregate, the first
// overflowing group's key) — a wrapped uint64 is a divergence.
package diff

import (
	"bytes"
	"cmp"
	"fmt"

	"bpagg"
	"bpagg/internal/oracle"
)

// PredSpec is one WHERE conjunct: a predicate against a named column of
// the case's table ("a", "b", "g" or "g2").
type PredSpec struct {
	Col  string
	Pred oracle.Pred
}

// Case is one differential scenario. A is the aggregate column ("a");
// B and G, when non-nil, add a second predicate column ("b") and a
// grouping column ("g") of the same length and τ. G2 adds a second
// grouping column ("g2"): GROUP BY then uses the composite (g, g2) key.
// Columns share the case's bit width K unless GK/G2K override the
// grouping columns' widths (0 = K). GNulls marks NULL rows of the
// grouping column; rows NULL in any grouping column belong to no group.
// ExtraA/B/G/G2 are appended after each state's cache treatment
// (rebuild, reload), so they land mid-segment on warmed caches. RowAppend
// forces one-value-at-a-time appends instead of bulk packing. FlipKeys
// packs the grouping columns in the other layout than the rest, so a
// measure and its key can disagree on window size (an HBP column's holds
// 63 or 60 values, not 64).
//
// Shards is the store-shape axis: 0 is the flat table, s > 0 a sharded
// store of s rows per shard (nil = the flat table only). Ranges lists the
// [lo, hi) row ranges the positional cells probe; when it is non-empty
// the Window shapes run too. Threads nil means {1, 8}.
type Case struct {
	Name                            string
	Layout                          bpagg.Layout
	K, Tau                          int // Tau 0 = library default; a narrower column takes its own cap
	GK, G2K                         int // grouping-column widths; 0 = K
	FlipKeys                        bool
	A, B, G, G2                     []uint64
	ANulls, GNulls                  []bool
	ExtraA, ExtraB, ExtraG, ExtraG2 []uint64
	Preds                           []PredSpec
	Threads                         []int
	RowAppend                       bool
	Shards                          []int
	Ranges                          [][2]int

	// big is the generator's mark on a case too large for the whole
	// matrix: it runs its grouped and ranked classes only (no scalar
	// battery), on one state per store shape, its sharded shape at the
	// primary thread count only.
	big bool
}

func (c *Case) gk() int  { return cmp.Or(c.GK, c.K) }
func (c *Case) g2k() int { return cmp.Or(c.G2K, c.K) }

// rows is the case's full row count, extras included.
func (c *Case) rows() int { return len(c.A) + len(c.ExtraA) }

// groupCols names the case's grouping columns; nil when it has none.
func (c *Case) groupCols() []string {
	switch {
	case c.G2 != nil:
		return []string{"g", "g2"}
	case c.G != nil:
		return []string{"g"}
	}
	return nil
}

// tier is the index rule the engine must follow for every grouped query:
// direct when the grouping columns' packed width is within the 10-bit
// direct key budget (core.DirectKeyBits), hash otherwise. Nothing else — NULL
// keys, a materialized selection, a row range, a shard split — may move it.
func (c *Case) tier() bpagg.GroupStrategy {
	packed := c.gk()
	if c.G2 != nil {
		packed += c.g2k()
	}
	if packed <= 10 {
		return bpagg.GroupDirect
	}
	return bpagg.GroupHash
}

// validate demands every auxiliary column match the aggregate column row
// for row, appended tails included.
func validate(c *Case) error {
	n, m := len(c.A), len(c.ExtraA)
	for _, l := range []struct {
		name      string
		on        bool
		got, want int
	}{{"ANulls", c.ANulls != nil, len(c.ANulls), n}, {"B", c.B != nil, len(c.B), n}, {"G", c.G != nil, len(c.G), n},
		{"GNulls (needs G)", c.GNulls != nil, len(c.GNulls), len(c.G)}, {"G2 (needs G)", c.G2 != nil, len(c.G2), len(c.G)},
		{"ExtraB", c.B != nil, len(c.ExtraB), m}, {"ExtraG", c.G != nil, len(c.ExtraG), m}, {"ExtraG2", c.G2 != nil, len(c.ExtraG2), m}} {
		if l.on && l.got != l.want {
			return fmt.Errorf("case %s: %s length %d != %d", c.Name, l.name, l.got, l.want)
		}
	}
	return nil
}

// columns lists the case's columns: name, layout, width, base values,
// NULLs and appended tail.
func (c *Case) columns() []column {
	keys := c.Layout
	if c.FlipKeys {
		keys = bpagg.VBP + bpagg.HBP - c.Layout
	}
	cols := []column{{"a", c.Layout, c.K, c.A, c.ANulls, c.ExtraA}}
	if c.B != nil {
		cols = append(cols, column{"b", c.Layout, c.K, c.B, nil, c.ExtraB})
	}
	if c.G != nil {
		cols = append(cols, column{"g", keys, c.gk(), c.G, c.GNulls, c.ExtraG})
	}
	if c.G2 != nil {
		cols = append(cols, column{"g2", keys, c.g2k(), c.G2, nil, c.ExtraG2})
	}
	return cols
}

type column struct {
	name   string
	layout bpagg.Layout
	k      int
	vals   []uint64
	nulls  []bool
	extra  []uint64
}

// table packs the case's base data into a fresh engine table.
func (c *Case) table() *bpagg.Table {
	var names []string
	var cols []*bpagg.Column
	for _, cl := range c.columns() {
		var opts []bpagg.ColumnOption
		if c.Tau != 0 {
			opts = append(opts, bpagg.WithGroupBits(min(c.Tau, tauCap(cl.layout, cl.k))))
		}
		col := bpagg.NewColumn(cl.layout, cl.k, opts...)
		switch {
		case cl.nulls != nil:
			for i, v := range cl.vals {
				if cl.nulls[i] {
					col.AppendNull()
				} else {
					col.Append(v)
				}
			}
		case c.RowAppend:
			for _, v := range cl.vals {
				col.Append(v)
			}
		default:
			col.Append(cl.vals...)
		}
		names, cols = append(names, cl.name), append(cols, col)
	}
	return bpagg.NewTableFromColumns(names, cols)
}

// appendExtras lands the case's extra rows on a (possibly rebuilt or
// reloaded) table — mid-segment appends over warmed caches.
func (c *Case) appendExtras(t *bpagg.Table) *bpagg.Table {
	if len(c.ExtraA) > 0 {
		m := map[string][]uint64{}
		for _, cl := range c.columns() {
			m[cl.name] = cl.extra
		}
		t.AppendColumnar(m)
	}
	return t
}

// store is one store shape in one state: a flat table (also served as
// the one-shard store it is, for the Ok arms and SQL) or a sharded store.
type store struct {
	name string
	flat *bpagg.Table
	st   *bpagg.ShardedTable
}

// stores builds one store shape of the case. shards == 0 is the flat
// table: fresh (append-built caches), rebuilt (RebuildSegmentAggregates)
// and reloaded (WriteTo/ReadTable), the extras appended after each
// treatment. shards > 0 splits the full table into shards of that many
// rows, as split and reloaded (WriteTo/ReadShardedTable) stores, so the
// cells also run on deserialized shards and a recomputed catalog. A big
// case keeps the first state of each shape.
func (c *Case) stores(shards int) ([]store, error) {
	var buf bytes.Buffer
	if shards == 0 {
		fresh := c.appendExtras(c.table())
		out := []store{{"fresh", fresh, bpagg.PartitionTable(fresh)}}
		if c.big {
			return out, nil
		}
		rebuilt := c.table()
		for _, name := range rebuilt.Columns() {
			rebuilt.Column(name).RebuildSegmentAggregates()
		}
		c.appendExtras(rebuilt)
		if _, err := c.table().WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("case %s: serialize: %w", c.Name, err)
		}
		reloaded, err := bpagg.ReadTable(&buf)
		if err != nil {
			return nil, fmt.Errorf("case %s: reload: %w", c.Name, err)
		}
		c.appendExtras(reloaded)
		return append(out, store{"rebuilt", rebuilt, bpagg.PartitionTable(rebuilt)},
			store{"reloaded", reloaded, bpagg.PartitionTable(reloaded)}), nil
	}
	split := bpagg.ShardTable(c.appendExtras(c.table()), shards)
	out := []store{{fmt.Sprintf("split/%d", shards), nil, split}}
	if c.big {
		return out, nil
	}
	if _, err := split.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("case %s: serialize sharded: %w", c.Name, err)
	}
	reloaded, err := bpagg.ReadShardedTable(&buf)
	if err != nil {
		return nil, fmt.Errorf("case %s: reload sharded: %w", c.Name, err)
	}
	return append(out, store{fmt.Sprintf("reloaded/%d", shards), nil, reloaded}), nil
}

// enginePred translates an oracle predicate to the engine's form.
func enginePred(p oracle.Pred) bpagg.Predicate {
	switch p.Op {
	case oracle.Between:
		return bpagg.Between(p.A, p.B)
	case oracle.In:
		return bpagg.In(p.List...)
	}
	return [...]func(uint64) bpagg.Predicate{oracle.EQ: bpagg.Equal, oracle.NE: bpagg.NotEqual, oracle.LT: bpagg.Less,
		oracle.LE: bpagg.LessEq, oracle.GT: bpagg.Greater, oracle.GE: bpagg.GreaterEq}[p.Op](p.A)
}
