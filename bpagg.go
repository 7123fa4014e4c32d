// Package bpagg is a main-memory columnar aggregation library built on
// intra-cycle (bit-level) parallelism. It implements the bit-parallel
// aggregation algorithms of Feng & Lo, "Accelerating Aggregation using
// Intra-cycle Parallelism" (ICDE 2015), together with the BitWeaving-style
// bit-packed storage layouts and filter scans they build on.
//
// Columns store k-bit codes packed into 64-bit processor words in one of
// two layouts: VBP (vertical bit packing — bit i of every value in word i)
// or HBP (horizontal bit packing — values side by side with a delimiter bit
// per field). Filter scans (=, <>, <, <=, >, >=, BETWEEN) and all standard
// aggregates (COUNT, SUM, MIN, MAX, AVG, MEDIAN, arbitrary rank/quantile)
// run directly on the packed words, typically processing 8-64 tuples per
// CPU instruction instead of one:
//
//	col := bpagg.NewColumn(bpagg.VBP, 16)
//	col.Append(codes...)
//	sel := col.Scan(bpagg.Less(100))
//	sum := col.Sum(sel)
//	med, ok := col.Median(sel)
//
// Aggregates accept execution options: bpagg.Parallel(n) partitions the
// column across n goroutines (the multi-threading axis of the paper's
// §IV-B).
//
// Values must be unsigned integer codes. The Decimal, Signed and Dict
// codecs provide order-preserving mappings for fixed-point decimals, signed
// integers and low-cardinality strings.
package bpagg

import (
	"fmt"
	"sort"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/parallel"
	"bpagg/internal/vbp"
)

// Layout selects the bit-packed storage format of a column.
type Layout int

const (
	// VBP is vertical bit packing: word i of a 64-tuple segment holds bit
	// i of all 64 values. Most space-efficient (exactly k bits per value)
	// and fastest for aggregation, but costly to reconstruct single rows.
	VBP Layout = iota
	// HBP is horizontal bit packing: values sit side by side in a word,
	// each in a delimited field. Slightly larger, cheaper single-row
	// reconstruction, one processing iteration per tau bits.
	HBP
)

// String returns the layout's conventional name.
func (l Layout) String() string {
	switch l {
	case VBP:
		return "VBP"
	case HBP:
		return "HBP"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ColumnOption configures NewColumn.
type ColumnOption func(*columnConfig)

type columnConfig struct {
	tau int
}

// WithGroupBits sets the bit-group size tau of the cache-line-optimized
// layout (paper §II-C). The default is 4 for VBP (the empirically optimal
// value of the paper) and the analytically space-optimal value for HBP.
func WithGroupBits(tau int) ColumnOption {
	return func(c *columnConfig) { c.tau = tau }
}

// Column is a bit-packed, append-only column of k-bit unsigned codes,
// optionally with SQL NULLs (tracked in a validity bitmap per [10] of the
// paper: scans never match NULL and aggregates skip it).
type Column struct {
	layout Layout
	k      int
	v      *vbp.Column
	h      *hbp.Column
	nulls  *bitvec.Bitmap // bit set = row is NULL; nil when no NULLs exist
}

// NewColumn returns an empty column of bitWidth-bit values in the given
// layout. bitWidth must be in [1, 64]; for HBP the effective bit-group size
// is additionally capped at 31.
func NewColumn(layout Layout, bitWidth int, opts ...ColumnOption) *Column {
	cfg := columnConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Column{layout: layout, k: bitWidth}
	switch layout {
	case VBP:
		tau := cfg.tau
		if tau == 0 {
			tau = 4
			if tau > bitWidth {
				tau = bitWidth
			}
		}
		c.v = vbp.New(bitWidth, tau)
	case HBP:
		tau := cfg.tau
		if tau == 0 {
			tau = hbp.DefaultTau(bitWidth)
		}
		c.h = hbp.New(bitWidth, tau)
	default:
		panic(fmt.Sprintf("bpagg: unknown layout %d", int(layout)))
	}
	return c
}

// FromValues packs values into a new column.
func FromValues(layout Layout, bitWidth int, values []uint64, opts ...ColumnOption) *Column {
	c := NewColumn(layout, bitWidth, opts...)
	c.Append(values...)
	return c
}

// Layout returns the column's storage layout.
func (c *Column) Layout() Layout { return c.layout }

// BitWidth returns k, the number of bits per value.
func (c *Column) BitWidth() int { return c.k }

// GroupBits returns the bit-group size tau in effect.
func (c *Column) GroupBits() int {
	if c.layout == VBP {
		return c.v.Tau()
	}
	return c.h.Tau()
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.layout == VBP {
		return c.v.Len()
	}
	return c.h.Len()
}

// sumOverflowPossible reports whether SUM over any selection of this
// column could exceed uint64 (DESIGN.md §7): when true, SUM and AVG run
// on the checked 128-bit kernels and report a true overflow as
// *OverflowError instead of wrapping.
func (c *Column) sumOverflowPossible() bool {
	return core.SumOverflowPossible(c.k, c.Len())
}

// fits reports whether v is representable in the column's BitWidth bits —
// the same bound the layout Append enforces with a panic.
func (c *Column) fits(v uint64) bool {
	return c.k >= 64 || v>>uint(c.k) == 0
}

// checkFits panics if v does not fit the column, naming the column. Table
// appends call it on every value before mutating anything, so a width
// violation can never tear a multi-column append.
func (c *Column) checkFits(name string, v uint64) {
	if !c.fits(v) {
		panic(fmt.Sprintf("bpagg: value %d does not fit column %q (%d bits)", v, name, c.k))
	}
}

// Append adds values to the column. Values must fit in BitWidth bits.
func (c *Column) Append(values ...uint64) {
	if c.layout == VBP {
		c.v.Append(values...)
	} else {
		c.h.Append(values...)
	}
	if c.nulls != nil {
		c.nulls.Resize(c.Len())
	}
}

// AppendNull adds a NULL row. The packed storage holds a zero placeholder
// code; the validity bitmap keeps it out of every scan and aggregate.
func (c *Column) AppendNull() {
	if c.layout == VBP {
		c.v.Append(0)
	} else {
		c.h.Append(0)
	}
	if c.nulls == nil {
		c.nulls = bitvec.New(c.Len())
	} else {
		c.nulls.Resize(c.Len())
	}
	c.nulls.Set(c.Len() - 1)
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	if i < 0 || i >= c.Len() {
		panic(fmt.Sprintf("bpagg: IsNull(%d) out of range [0,%d)", i, c.Len()))
	}
	return c.nulls != nil && c.nulls.Get(i)
}

// NullCount returns the number of NULL rows.
func (c *Column) NullCount() int {
	if c.nulls == nil {
		return 0
	}
	return c.nulls.Count()
}

// effective intersects a selection with the validity bitmap. With no NULLs
// it returns the selection's backing vector unchanged (no copy).
func (c *Column) effective(sel *Bitmap) *bitvec.Bitmap {
	if c.nulls == nil {
		return sel.b
	}
	return sel.b.Clone().AndNot(c.nulls)
}

// Value reconstructs row i to plain form. This is the per-row path the
// bit-parallel operators avoid; use it for result materialization, not for
// bulk processing.
func (c *Column) Value(i int) uint64 {
	if c.layout == VBP {
		return c.v.At(i)
	}
	return c.h.At(i)
}

// MemoryWords reports the number of 64-bit words backing the column.
func (c *Column) MemoryWords() int {
	if c.layout == VBP {
		return c.v.MemoryWords()
	}
	return c.h.MemoryWords()
}

// RebuildSegmentAggregates recomputes the per-segment zone maps and
// aggregate caches (min/max/sum) from the packed words, discarding
// whatever cached state the column carried. Results of every aggregate
// are identical before and after — the caches are an acceleration, not
// a source of truth — which is exactly what the differential harness
// (internal/oracle/diff) asserts across fresh, rebuilt, and reloaded
// columns.
func (c *Column) RebuildSegmentAggregates() { c.rebuildSegmentAggregates() }

// All returns a selection containing every row of the column.
func (c *Column) All() *Bitmap {
	return &Bitmap{b: bitvec.NewFull(c.Len())}
}

// None returns an empty selection sized to the column.
func (c *Column) None() *Bitmap {
	return &Bitmap{b: bitvec.New(c.Len())}
}

// Scan evaluates a predicate with the layout's bit-parallel scan and
// returns the selection bitmap (the filter bit vector F of the paper).
// IN-lists run one equality scan per member and union the results (§II-E).
func (c *Column) Scan(p Predicate) *Bitmap {
	return c.ScanStats(p, nil)
}

// TopK returns the k largest selected values in descending order (ties
// included arbitrarily). It runs one r-selection to find the k-th largest
// value, one scan to collect everything above it, and reconstructs at most
// k rows — never the whole selection.
func (c *Column) TopK(sel *Bitmap, k int, opts ...ExecOption) []uint64 {
	return c.extremeK(sel, k, true, opts)
}

// BottomK returns the k smallest selected values in ascending order.
func (c *Column) BottomK(sel *Bitmap, k int, opts ...ExecOption) []uint64 {
	return c.extremeK(sel, k, false, opts)
}

func (c *Column) extremeK(sel *Bitmap, k int, top bool, opts []ExecOption) []uint64 {
	cnt := c.Count(sel)
	if k <= 0 || cnt == 0 {
		return nil
	}
	if uint64(k) > cnt {
		k = int(cnt)
	}
	var r uint64
	if top {
		r = cnt - uint64(k) + 1
	} else {
		r = uint64(k)
	}
	thr, _ := c.Rank(sel, r, opts...)
	// Values strictly beyond the threshold all belong to the result; there
	// are at most k-1 of them, the rest are copies of the threshold.
	var strict *Bitmap
	if top {
		strict = c.Scan(Greater(thr))
	} else {
		strict = c.Scan(Less(thr))
	}
	strict.b.And(c.effective(sel))
	out := make([]uint64, 0, k)
	strict.ForEach(func(row int) { out = append(out, c.Value(row)) })
	if top {
		sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	} else {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	for len(out) < k {
		out = append(out, thr)
	}
	return out
}

// Count returns the number of selected non-NULL rows (SQL COUNT(column)
// semantics; use sel.Count for COUNT(*)).
func (c *Column) Count(sel *Bitmap) uint64 {
	c.checkSel(sel)
	return core.Count(c.effective(sel))
}

// Sum returns the sum of the selected values. A true total past uint64
// (possible only when Len ≥ 2^(64-BitWidth)) panics with *OverflowError;
// use SumContext to receive it as an error.
func (c *Column) Sum(sel *Bitmap, opts ...ExecOption) uint64 {
	v, err := c.SumContext(nil, sel, opts...)
	fusedMust(err)
	return v
}

// Min returns the minimum selected value; ok is false when the selection is
// empty.
func (c *Column) Min(sel *Bitmap, opts ...ExecOption) (uint64, bool) {
	v, ok, err := c.MinContext(nil, sel, opts...)
	fusedMust(err)
	return v, ok
}

// Max returns the maximum selected value; ok is false when the selection is
// empty.
func (c *Column) Max(sel *Bitmap, opts ...ExecOption) (uint64, bool) {
	v, ok, err := c.MaxContext(nil, sel, opts...)
	fusedMust(err)
	return v, ok
}

// Avg returns the mean of the selected values; ok is false when the
// selection is empty.
func (c *Column) Avg(sel *Bitmap, opts ...ExecOption) (float64, bool) {
	v, ok, err := c.AvgContext(nil, sel, opts...)
	fusedMust(err)
	return v, ok
}

// Median returns the lower median of the selected values; ok is false when
// the selection is empty.
func (c *Column) Median(sel *Bitmap, opts ...ExecOption) (uint64, bool) {
	v, ok, err := c.MedianContext(nil, sel, opts...)
	fusedMust(err)
	return v, ok
}

// Rank returns the r-th smallest selected value (1-based) — the
// r-selection the paper's MEDIAN algorithms generalize to. ok is false
// when fewer than r rows are selected or r is 0.
func (c *Column) Rank(sel *Bitmap, r uint64, opts ...ExecOption) (uint64, bool) {
	v, ok, err := c.RankContext(nil, sel, r, opts...)
	fusedMust(err)
	return v, ok
}

// Quantile returns the value at quantile q in [0, 1] of the selected rows
// (nearest-rank definition: rank = ceil(q*count), with q=0 meaning the
// minimum). ok is false when the selection is empty; q outside [0, 1]
// (or NaN) panics.
func (c *Column) Quantile(sel *Bitmap, q float64, opts ...ExecOption) (uint64, bool) {
	v, ok, err := c.QuantileContext(nil, sel, q, opts...)
	fusedMust(err)
	return v, ok
}

func (c *Column) checkSel(sel *Bitmap) {
	if sel.b.Len() != c.Len() {
		panic(fmt.Sprintf("bpagg: selection length %d does not match column length %d",
			sel.b.Len(), c.Len()))
	}
}

// ExecOption configures aggregate execution: the paper's §IV-B
// multi-threading knob (Parallel) plus the §III access-method choice
// (Access).
type ExecOption func(*execConfig)

// execConfig is the resolved option bag of one aggregate call.
type execConfig struct {
	par    parallel.Options
	access AccessMethod
}

// Parallel partitions the work across n goroutines.
func Parallel(n int) ExecOption {
	return func(c *execConfig) { c.par.Threads = n }
}

func execOptions(opts []ExecOption) execConfig {
	var c execConfig
	for _, f := range opts {
		f(&c)
	}
	return c
}
