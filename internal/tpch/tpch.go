// Package tpch provides the synthetic TPC-H-style workload behind the
// paper's Table II (§IV-C).
//
// The paper runs nine TPC-H queries (those with selectivity above 0.01,
// minus the COUNT-only Q4) at scale factor 10 on a denormalized wide table
// (per WideTable [11]), so that every query reduces to a conjunctive filter
// scan plus aggregations over single columns. We do not have the dbgen
// data; what Table II measures, however, is cycles-per-tuple of the scan
// and aggregation phases as a function of (a) the query's selectivity and
// (b) the aggregate columns' bit widths — both of which this generator
// controls exactly:
//
//   - each query's published selectivity (Table II row 2) is reproduced by
//     uniform filter columns scanned with range predicates whose cutoffs
//     multiply out to the target;
//   - aggregate columns use the bit widths of the real query's aggregate
//     expressions (e.g. 24-bit scaled l_extendedprice — the paper's own
//     example — 6-bit l_quantity, 26-bit materialized charge expressions).
//
// The substitution is documented in DESIGN.md §4.
package tpch

import (
	"math/rand"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// AggOp is an aggregate operator of a query's select list.
type AggOp int

// Aggregate operators appearing in the nine Table II queries.
const (
	Sum AggOp = iota
	Avg
	CountOp
	Max
	Median
)

// String returns the SQL spelling.
func (o AggOp) String() string {
	switch o {
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case CountOp:
		return "COUNT"
	case Max:
		return "MAX"
	case Median:
		return "MEDIAN"
	default:
		return "?"
	}
}

// AggSpec is one aggregate expression: the operator and the bit width of
// the (possibly materialized) column it reads.
type AggSpec struct {
	Name string
	Op   AggOp
	Bits int
}

// FilterSpec is one conjunctive predicate source: a uniform Bits-wide
// column scanned with value < cutoff, where the cutoff realizes Sel.
type FilterSpec struct {
	Name string
	Bits int
	Sel  float64
}

// Query describes one Table II query.
type Query struct {
	Name        string
	Selectivity float64 // published overall selectivity
	Filters     []FilterSpec
	Aggs        []AggSpec
}

// Queries returns the nine Table II queries. Filter columns mirror the real
// predicates' columns (dates, flags, nations); their per-column
// selectivities multiply out to the published overall selectivity.
// Aggregate columns carry the real queries' expression widths.
func Queries() []Query {
	return []Query{
		{
			// Pricing summary report: one shipdate predicate passing almost
			// everything, and the heaviest select list in the benchmark.
			Name: "Q1", Selectivity: 0.986,
			Filters: []FilterSpec{{"l_shipdate", 12, 0.986}},
			Aggs: []AggSpec{
				{"sum_qty", Sum, 6},
				{"sum_base_price", Sum, 24},
				{"sum_disc_price", Sum, 25},
				{"sum_charge", Sum, 26},
				{"avg_qty", Avg, 6},
				{"avg_price", Avg, 24},
				{"avg_disc", Avg, 4},
				{"count_order", CountOp, 0},
			},
		},
		{
			// Forecasting revenue change: three tight range predicates, one
			// materialized revenue sum.
			Name: "Q6", Selectivity: 0.019,
			Filters: []FilterSpec{
				{"l_shipdate", 12, 0.30},
				{"l_discount", 10, 0.28},
				{"l_quantity", 10, 0.2262},
			},
			Aggs: []AggSpec{{"revenue", Sum, 24}},
		},
		{
			// Volume shipping between two nations over two years.
			Name: "Q7", Selectivity: 0.301,
			Filters: []FilterSpec{
				{"nation_pair", 7, 0.55},
				{"l_shipdate", 12, 0.5473},
			},
			Aggs: []AggSpec{{"volume", Sum, 24}},
		},
		{
			// Product type profit measure: part-name containment.
			Name: "Q9", Selectivity: 0.053,
			Filters: []FilterSpec{{"p_name_match", 8, 0.053}},
			Aggs:    []AggSpec{{"amount", Sum, 25}},
		},
		{
			// Returned item reporting: quarter of orders, RETURNFLAG = 'R'.
			Name: "Q10", Selectivity: 0.019,
			Filters: []FilterSpec{
				{"o_orderdate", 12, 0.076},
				{"l_returnflag", 2, 0.25},
			},
			Aggs: []AggSpec{{"revenue", Sum, 24}},
		},
		{
			// Important stock identification: one nation of suppliers.
			Name: "Q11", Selectivity: 0.041,
			Filters: []FilterSpec{{"s_nation", 5, 0.041}},
			Aggs:    []AggSpec{{"value", Sum, 26}},
		},
		{
			// Promotion effect: one month of shipments, two revenue sums
			// (promo and total).
			Name: "Q14", Selectivity: 0.012,
			Filters: []FilterSpec{{"l_shipdate", 12, 0.012}},
			Aggs: []AggSpec{
				{"promo_revenue", Sum, 24},
				{"total_revenue", Sum, 24},
			},
		},
		{
			// Top supplier: one quarter of shipments, revenue sum plus the
			// max for the having clause.
			Name: "Q15", Selectivity: 0.037,
			Filters: []FilterSpec{{"l_shipdate", 12, 0.037}},
			Aggs: []AggSpec{
				{"total_revenue", Sum, 24},
				{"max_revenue", Max, 24},
			},
		},
		{
			// Potential part promotion: parts and a shipdate year.
			Name: "Q20", Selectivity: 0.150,
			Filters: []FilterSpec{
				{"p_name_match", 8, 0.50},
				{"l_shipdate", 12, 0.30},
			},
			Aggs: []AggSpec{{"sum_quantity", Sum, 17}},
		},
	}
}

// Layout selects the storage layout of a generated instance.
type Layout int

// Storage layouts of Table II's two sections.
const (
	VBP Layout = iota
	HBP
)

// String returns the layout's conventional name.
func (l Layout) String() string {
	if l == VBP {
		return "VBP"
	}
	return "HBP"
}

// Column is a packed column in either layout, with the scan cutoff used by
// filter columns.
type Column struct {
	layout Layout
	v      *vbp.Column
	h      *hbp.Column
	cutoff uint64
}

// Instance is one query's generated data in one layout, ready to run.
type Instance struct {
	Query  Query
	Layout Layout
	N      int
	// Filters are scanned conjunctively; Aggs[i] corresponds to
	// Query.Aggs[i] (nil column for COUNT, which reads only the bitmap).
	Filters []*Column
	Aggs    []*Column
}

// Build generates the instance for q with n rows in the given layout,
// deterministically from seed.
func Build(q Query, layout Layout, n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &Instance{Query: q, Layout: layout, N: n}
	vals := make([]uint64, n)
	for _, fs := range q.Filters {
		max := word.LowMask(fs.Bits)
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
		cutoff := uint64(float64(max+1) * fs.Sel)
		inst.Filters = append(inst.Filters, pack(layout, fs.Bits, vals, cutoff))
	}
	for _, as := range q.Aggs {
		if as.Op == CountOp {
			inst.Aggs = append(inst.Aggs, nil)
			continue
		}
		max := word.LowMask(as.Bits)
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
		inst.Aggs = append(inst.Aggs, pack(layout, as.Bits, vals, 0))
	}
	return inst
}

func pack(layout Layout, bits int, vals []uint64, cutoff uint64) *Column {
	c := &Column{layout: layout, cutoff: cutoff}
	if layout == VBP {
		tau := 4
		if tau > bits {
			tau = bits
		}
		c.v = vbp.Pack(vals, bits, tau)
	} else {
		c.h = hbp.Pack(vals, bits, hbp.DefaultTau(bits))
	}
	return c
}

// Scan runs the query's conjunctive bit-parallel filter scan and returns
// the combined filter bit vector.
func (inst *Instance) Scan() *bitvec.Bitmap {
	var f *bitvec.Bitmap
	for _, c := range inst.Filters {
		p := scan.Predicate{Op: scan.LT, A: c.cutoff}
		var m *bitvec.Bitmap
		if c.layout == VBP {
			m = scan.VBPStats(c.v, p, nil)
		} else {
			m = scan.HBPStats(c.h, p, nil)
		}
		if f == nil {
			f = m
		} else {
			f.And(m)
		}
	}
	if f == nil {
		f = bitvec.NewFull(inst.N)
	}
	return f
}
