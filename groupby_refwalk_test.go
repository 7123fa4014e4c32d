package bpagg

import (
	"context"
	"testing"
)

// refGroups is the reference GROUP BY the single-pass partition is checked
// against: the per-group MIN + equality walk, an independent algorithm
// written on the public Column API only. Repeated MIN finds the distinct
// values in ascending order, one equality scan per value carves its
// group out of the selection, and removing the value's rows (AndNot)
// leaves the strictly-greater residual for the next MIN. Composite keys
// nest one walk per grouping column, so keys come out in ascending packed
// order; a row NULL in a grouping column matches no equality scan and
// joins no group. Aggregates run one Column call per group selection.
type refGroups struct {
	tbl  *Table
	keys []uint64
	sels []*Bitmap
}

// referenceGroupWalk partitions sel by the named columns of tbl.
func referenceGroupWalk(t testing.TB, tbl *Table, sel *Bitmap, columns ...string) *refGroups {
	t.Helper()
	r := &refGroups{tbl: tbl}
	var walk func(sel *Bitmap, depth int, prefix uint64)
	walk = func(sel *Bitmap, depth int, prefix uint64) {
		col := tbl.Column(columns[depth])
		rest := sel.Clone()
		for {
			v, ok, err := col.MinContext(context.Background(), rest)
			if err != nil {
				t.Fatalf("reference walk: %v", err)
			}
			if !ok {
				return
			}
			eq := col.Scan(Equal(v))
			sub := sel.Clone().And(eq)
			key := prefix<<uint(col.BitWidth()) | v
			if depth == len(columns)-1 {
				r.keys = append(r.keys, key)
				r.sels = append(r.sels, sub)
			} else {
				walk(sub, depth+1, key)
			}
			rest.AndNot(eq)
		}
	}
	walk(sel, 0, 0)
	return r
}

// Count returns each group's row count.
func (r *refGroups) Count() []uint64 {
	out := make([]uint64, len(r.sels))
	for i, sel := range r.sels {
		out[i] = uint64(sel.Count())
	}
	return out
}

// each runs one Column aggregate per group; a group without a value
// reports 0.
func (r *refGroups) each(column string, agg func(*Column, *Bitmap, ...ExecOption) (uint64, bool)) []uint64 {
	out := make([]uint64, len(r.sels))
	for i, sel := range r.sels {
		out[i], _ = agg(r.tbl.Column(column), sel)
	}
	return out
}

func (r *refGroups) Min(column string) []uint64    { return r.each(column, (*Column).Min) }
func (r *refGroups) Max(column string) []uint64    { return r.each(column, (*Column).Max) }
func (r *refGroups) Median(column string) []uint64 { return r.each(column, (*Column).Median) }

// SumContext returns each group's SUM, or the first group's
// *OverflowError in key order.
func (r *refGroups) SumContext(ctx context.Context, column string) ([]uint64, error) {
	out := make([]uint64, len(r.sels))
	for i, sel := range r.sels {
		var err error
		if out[i], err = r.tbl.Column(column).SumContext(ctx, sel); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Avg returns each group's AVG (0 for a group without values).
func (r *refGroups) Avg(column string) []float64 {
	out := make([]float64, len(r.sels))
	for i, sel := range r.sels {
		out[i], _ = r.tbl.Column(column).Avg(sel)
	}
	return out
}

// requireSameGroups fails unless g holds exactly ref's keys and
// selections.
func requireSameGroups(t testing.TB, g *Grouped, ref *refGroups) {
	t.Helper()
	keys := g.Keys()
	if len(keys) != len(ref.keys) {
		t.Fatalf("key counts differ: engine %d, reference walk %d", len(keys), len(ref.keys))
	}
	for i, k := range keys {
		if k != ref.keys[i] {
			t.Fatalf("keys differ at %d: engine %d, reference walk %d", i, k, ref.keys[i])
		}
		a, b := g.Selection(i), ref.sels[i]
		if a.Count() != b.Count() || a.Clone().AndNot(b).Count() != 0 {
			t.Fatalf("group %d selection differs (engine %d rows, reference walk %d rows)",
				i, a.Count(), b.Count())
		}
	}
}
