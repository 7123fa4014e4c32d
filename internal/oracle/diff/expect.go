package diff

import (
	"math/bits"
	"slices"
	"sort"

	"bpagg/internal/oracle"
)

// tally is the oracle's account of one group of selected rows — or of
// the whole selection, as one group: what every aggregate reads.
type tally struct {
	rows, nnz uint64   // COUNT(*), COUNT(a)
	sum       wide     // exact SUM(a)
	min, max  uint64   // over the non-NULL values, when nnz > 0
	vals      []uint64 // the non-NULL values, ascending once the pass ends
}

// wide is an exact 128-bit SUM: hi·2^64 + lo.
type wide struct{ hi, lo uint64 }

func (t *tally) add(v uint64, null bool) {
	t.rows++
	if null {
		return
	}
	var carry uint64
	t.sum.lo, carry = bits.Add64(t.sum.lo, v, 0)
	t.sum.hi += carry
	if t.nnz == 0 || v < t.min {
		t.min = v
	}
	if t.nnz == 0 || v > t.max {
		t.max = v
	}
	t.nnz++
	t.vals = append(t.vals, v)
}

// opt is a (value, found) answer; a missing value reads as zero, so two
// "not found" answers agree whatever value came with them.
type opt[T comparable] struct {
	v  T
	ok bool
}

func some[T comparable](v T, ok bool) opt[T] {
	if !ok {
		var zero T
		v = zero
	}
	return opt[T]{v, ok}
}

func (t *tally) minOpt() opt[uint64] { return some(t.min, t.nnz > 0) }
func (t *tally) maxOpt() opt[uint64] { return some(t.max, t.nnz > 0) }

// avg is AVG(a) as the engine divides it: float64(sum)/float64(count).
func (t *tally) avg() opt[float64] {
	return some(float64(t.sum.lo)/float64(t.nnz), t.nnz > 0)
}

// rank is the r-th smallest value (1-based); not found for r = 0 or past
// the count.
func (t *tally) rank(r uint64) opt[uint64] {
	if r == 0 || r > t.nnz {
		return opt[uint64]{}
	}
	return some(t.vals[r-1], true)
}

// median is the lower median: rank (count+1)/2.
func (t *tally) median() opt[uint64] { return t.rank((t.nnz + 1) / 2) }

// quantile asks the naive oracle's nearest-rank definition.
func (t *tally) quantile(q float64) opt[uint64] {
	o := oracle.New(t.vals)
	return some(o.Quantile(o.All(), q))
}

// ranks are the boundary ranks a selection probes (rank (count+1)/2 is
// MEDIAN's): first and last, and with all set invalid 0 and past-last.
func (t *tally) ranks(all bool) []uint64 {
	rs := []uint64{1, t.nnz}
	if all {
		rs = []uint64{0, 1, t.nnz, t.nnz + 1}
	}
	slices.Sort(rs)
	return slices.Compact(rs)
}

// quantiles are the quantiles a selection probes: the mid one, and with
// all set on small selections the size-independent q = 0 and q = 1 clamp
// edges (each quantile is a full rank descent).
func (t *tally) quantiles(all bool) []float64 {
	if all && t.nnz <= 65 {
		return []float64{0, 0.5, 1}
	}
	return []float64{0.5}
}

// groupedQuantiles are the grouped QuantileOk arms' arguments.
var groupedQuantiles = []float64{0, 0.9, 1}

// answers is the oracle's verdict over one selection: the selection as
// one tally and, for a grouped case, one tally per key in ascending key
// order.
type answers struct {
	all    tally
	keys   []uint64
	groups []*tally
	wanted *groupedWant
}

// groupedWant is the grouped battery's expected columns, one entry per
// group. empty reports a group with no measure value, which has no
// MIN/MAX/MEDIAN; its AVG reads 0.
type groupedWant struct {
	counts, sums, mins, maxs, medians []uint64
	avgs                              []float64
	empty                             bool
	medianOks                         []opt[uint64]
	quantileOks                       [][]opt[uint64] // one per groupedQuantiles entry
}

// want computes the grouped columns once per selection.
func (a *answers) want() *groupedWant {
	if a.wanted != nil {
		return a.wanted
	}
	w := &groupedWant{quantileOks: make([][]opt[uint64], len(groupedQuantiles))}
	for _, t := range a.groups {
		med := t.median()
		w.counts, w.sums = append(w.counts, t.rows), append(w.sums, t.sum.lo)
		w.mins, w.maxs, w.medians = append(w.mins, t.min), append(w.maxs, t.max), append(w.medians, med.v)
		w.avgs, w.medianOks = append(w.avgs, t.avg().v), append(w.medianOks, med)
		w.empty = w.empty || t.nnz == 0
		for i, q := range groupedQuantiles {
			w.quantileOks[i] = append(w.quantileOks[i], t.quantile(q))
		}
	}
	a.wanted = w
	return w
}

// expectation is everything the oracle says about a case, computed once:
// the whole selection, each range probe and each window of each shape.
type expectation struct {
	c           *Case
	oa, og, og2 *oracle.Column
	sel         []bool
	whole       *answers
	ranges      []*answers   // one per c.Ranges probe
	windows     [][]*answers // one per window shape, one per window
}

// windowShapes are the {size, step} Window shapes: segment-aligned
// tumbling, fringe-heavy sliding with overlap, and sampling with gaps.
var windowShapes = [][2]int{{64, 64}, {37, 23}, {96, 128}}

// expect builds the case's oracle columns over the full (base + extra)
// data, its selection, and the answers every cell compares with.
func expect(c *Case) *expectation {
	cols := map[string]*oracle.Column{}
	for _, cl := range c.columns() {
		o := &oracle.Column{Vals: append(slices.Clone(cl.vals), cl.extra...)}
		if cl.nulls != nil {
			o.Nulls = append(slices.Clone(cl.nulls), make([]bool, len(cl.extra))...)
		}
		cols[cl.name] = o
	}
	x := &expectation{c: c, oa: cols["a"], og: cols["g"], og2: cols["g2"]}
	x.sel = x.oa.All()
	for _, ps := range c.Preds {
		x.sel = oracle.And(x.sel, cols[ps.Col].Select(ps.Pred))
	}
	x.whole = x.answers(x.sel)
	for _, p := range c.Ranges {
		x.ranges = append(x.ranges, x.answers(rangeSel(x.sel, p[0], p[1])))
	}
	if len(c.Ranges) > 0 {
		for _, w := range windowShapes {
			var ws []*answers
			for lo := 0; lo < len(x.sel); lo += w[1] {
				ws = append(ws, x.answers(rangeSel(x.sel, lo, lo+w[0])))
			}
			x.windows = append(x.windows, ws)
		}
	}
	return x
}

// rangeSel restricts a selection to rows [lo, hi), clipped to the data.
func rangeSel(sel []bool, lo, hi int) []bool {
	out := make([]bool, len(sel))
	if lo < len(sel) {
		copy(out[lo:], sel[lo:min(hi, len(sel))])
	}
	return out
}

// answers computes every scalar and grouped answer over the rows sel
// selects, in one map-shaped pass that files each row under its group.
func (x *expectation) answers(sel []bool) *answers {
	a := &answers{}
	m := map[uint64]*tally{}
	for i, s := range sel {
		if !s {
			continue
		}
		v, null := x.oa.Vals[i], x.oa.IsNull(i)
		a.all.add(v, null)
		if x.og == nil || x.og.IsNull(i) {
			continue
		}
		key := x.og.Vals[i]
		if x.og2 != nil {
			key = key<<uint(x.c.g2k()) | x.og2.Vals[i]
		}
		t := m[key]
		if t == nil {
			t = &tally{}
			m[key] = t
			a.keys = append(a.keys, key)
		}
		t.add(v, null)
	}
	sort.Slice(a.keys, func(i, j int) bool { return a.keys[i] < a.keys[j] })
	sortVals := func(t *tally) { sort.Slice(t.vals, func(i, j int) bool { return t.vals[i] < t.vals[j] }) }
	sortVals(&a.all)
	for _, k := range a.keys {
		sortVals(m[k])
		a.groups = append(a.groups, m[k])
	}
	return a
}

// parts splits a packed key into its per-column codes, as KeyParts does.
func (x *expectation) parts(key uint64) []uint64 {
	if x.og2 == nil {
		return []uint64{key}
	}
	k2 := uint(x.c.g2k())
	return []uint64{key >> k2, key & (1<<k2 - 1)}
}

// overflow is the first group in key order whose SUM exceeds uint64 —
// its exact total and key parts — or a zero total when every group fits.
func (x *expectation) overflow(a *answers) (wide, []uint64) {
	for i, t := range a.groups {
		if t.sum.hi != 0 {
			return t.sum, x.parts(a.keys[i])
		}
	}
	return wide{}, nil
}
