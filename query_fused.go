package bpagg

import (
	"errors"
	"fmt"

	"bpagg/internal/scan"
)

// Fused query planning: the gate below decides whether a statement can run
// as one fused segment-at-a-time pass, which builds no filter bitmap. The
// contract and its refusals are DESIGN.md §10's.

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

// gate is the fusion gate (DESIGN.md §10): whether the state's clauses
// and the aggregate column (nil for row counting) can run fused. It
// allocates nothing. fanOut.plan is its one caller, for a statement's
// verdict.
func gate(s *queryState, agg *Column) bool {
	if s.sel != nil || len(s.clauses) == 0 {
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

// must re-raises an error where the API has none to return — in the one
// plain aggregate, Query/RangeQuery.Sum, in Selection's scans and in
// NewTableFromColumns: a worker panic with its original panic value,
// everything else (misuse, *OverflowError) with the error itself.
func must[T any](v T, err error) T {
	if err == nil {
		return v
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
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

func checkPredFits(p Predicate, k int) {
	if !p.fits(k) {
		panic(fmt.Sprintf("scan: predicate constant does not fit in %d bits", k))
	}
}
