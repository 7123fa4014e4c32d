package bpagg

import (
	"errors"
	"fmt"

	"bpagg/internal/scan"
)

// Fused query planning. Where clauses are recorded lazily (see table.go);
// when an aggregate runs before the selection is materialized, the planner
// checks whether the whole query — predicate conjunction plus aggregate —
// can execute as one fused segment-at-a-time pass, in which case the
// filter bitmap is never built: each segment's filter word goes straight
// from the scan lanes into the aggregate kernel, and all-match segments
// are answered from the per-segment aggregate caches.
//
// Fusion contract (DESIGN.md §10): a query fuses iff
//   - the selection has not been materialized (no Selection() call and no
//     arbitrary user bitmap) and there is at least one Where clause;
//   - every clause is a simple comparison (IN-lists run as unions of
//     equality scans and need a bitmap);
//   - neither the clause columns nor the aggregate column have NULLs
//     (NULL semantics live in the validity-bitmap intersection);
//   - execution is not pinned to the Reconstruct baseline (Auto chooses
//     per two-phase aggregate from the realized selectivity, so it never
//     suppresses fusion: there is no selection to consult before the scan);
//   - all columns involved agree on the window width (VBP's 64, HBP's
//     values-per-segment), so one filter word addresses one segment
//     everywhere.
// Anything else falls back to the two-phase path, which remains the
// general executor. Results are bit-identical either way.

// whereClause is one recorded conjunct of a query's WHERE.
type whereClause struct {
	name string
	col  *Column
	pred Predicate
}

// fits reports whether every constant of the predicate fits the column's
// k bits — the same validation the scans enforce, applied at clause
// registration so lazy evaluation fails at the same point eager did.
func (p Predicate) fits(k int) bool {
	if p.list != nil {
		for _, v := range p.list {
			if !(scan.Predicate{Op: scan.EQ, A: v}).Fits(k) {
				return false
			}
		}
		return true
	}
	return p.p.Fits(k)
}

// fuses decides whether the query's clauses and the aggregate column
// (nil for row counting) can run fused under the given access method —
// the gate alone, which allocates nothing, so planners can ask it freely.
func (s *queryState) fuses(agg *Column, access AccessMethod) bool {
	if s.sel != nil || len(s.clauses) == 0 || access == Reconstruct {
		return false
	}
	wb := 0
	if agg != nil {
		if agg.nulls != nil {
			return false
		}
		wb = agg.segRows()
	}
	for _, cl := range s.clauses {
		if cl.pred.list != nil || cl.col.nulls != nil {
			return false
		}
		cwb := cl.col.segRows()
		if wb == 0 {
			wb = cwb
		} else if cwb != wb {
			return false
		}
	}
	return true
}

// fusedPlan builds the per-window predicate evaluators the fused
// drivers run, one per clause of a query that fuses.
func (s *queryState) fusedPlan() []scan.WindowPred {
	preds := make([]scan.WindowPred, 0, len(s.clauses))
	for _, cl := range s.clauses {
		if cl.col.layout == VBP {
			preds = append(preds, scan.NewVBPWindowPred(cl.col.v, cl.pred.p))
		} else {
			preds = append(preds, scan.NewHBPWindowPred(cl.col.h, cl.pred.p))
		}
	}
	return preds
}

// fusedMust re-raises a ...Context failure on the plain (non-Context)
// methods, which are thin wrappers over their Context twins: a worker
// panic propagates with the original panic value, everything else
// (misuse, *OverflowError) panics with the error itself.
func fusedMust(err error) {
	if err == nil {
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
}

// must is a plain method's body: the answer of its Context twin, whose
// failure re-raises through fusedMust.
func must[T any](v T, err error) T {
	fusedMust(err)
	return v
}

// must2 is must for an answer with its presence flag (or flags).
func must2[T, U any](v T, ok U, err error) (T, U) {
	fusedMust(err)
	return v, ok
}

// medianRank is the lower-median rank function for the fused rank driver.
func medianRank(u uint64) (uint64, bool) { return (u + 1) / 2, u > 0 }

// checkQuantile rejects a quantile outside [0, 1]; the negated form also
// rejects NaN, which would otherwise reach quantileRank's float→uint64
// conversion, whose result for NaN differs by architecture.
func checkQuantile(q float64) error {
	if !(q >= 0 && q <= 1) {
		return fmt.Errorf("bpagg: quantile %v outside [0,1]", q)
	}
	return nil
}

// quantileRank returns the nearest-rank function for quantile q in [0,1]
// (rank = ceil(q·count), with q = 0 meaning the minimum).
func quantileRank(q float64) func(u uint64) (uint64, bool) {
	return func(u uint64) (uint64, bool) {
		if u == 0 {
			return 0, false
		}
		r := uint64(float64(u)*q + 0.999999999)
		if r == 0 {
			r = 1
		}
		if r > u {
			r = u
		}
		return r, true
	}
}

// Fused reports whether the next aggregate call would run the fused
// scan→aggregate path for the named column (EXPLAIN support); the empty
// string asks about row counting (COUNT(*)), which has no aggregate
// column. It never materializes the selection.
func (q *Query) Fused(column string) bool {
	return q.fusesColumn(column, execOptions(q.execs).access)
}

// fusesColumn is fuses by column name; an unknown name does not fuse.
func (s *queryState) fusesColumn(column string, access AccessMethod) bool {
	var col *Column
	if column != "" {
		col = s.t.cols[column]
		if col == nil {
			return false
		}
	}
	return s.fuses(col, access)
}

func checkPredFits(p Predicate, k int) {
	if !p.fits(k) {
		panic(fmt.Sprintf("scan: predicate constant does not fit in %d bits", k))
	}
}
