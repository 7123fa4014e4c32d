// Package scan implements bit-parallel filter scans over VBP and HBP
// columns — the BitWeaving substrate (Li & Patel, SIGMOD 2013) that the
// paper's aggregation algorithms consume (§II) and build on (SLOTMIN uses
// BIT-PARALLEL-LESSTHAN, HBP MEDIAN uses BIT-PARALLEL-EQUAL).
//
// A scan evaluates one simple predicate over a packed column and produces a
// dense filter Bitmap (bit i = tuple i passed). Complex predicates compose
// by Bitmap intersection/union per §II-E.
package scan

import (
	"fmt"

	"bpagg/internal/word"
)

// Op is a comparison operator of a simple predicate.
type Op int

// Comparison operators. Between is inclusive on both ends.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
	Between
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case Between:
		return "BETWEEN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a simple comparison against constants. B is used only by
// Between (A <= v <= B).
type Predicate struct {
	Op   Op
	A, B uint64
}

// Matches reports whether a plain value satisfies the predicate — the
// scalar reference semantics all bit-parallel scans are tested against.
func (p Predicate) Matches(v uint64) bool {
	switch p.Op {
	case EQ:
		return v == p.A
	case NE:
		return v != p.A
	case LT:
		return v < p.A
	case LE:
		return v <= p.A
	case GT:
		return v > p.A
	case GE:
		return v >= p.A
	case Between:
		return p.A <= v && v <= p.B
	default:
		panic(fmt.Sprintf("scan: unknown op %d", int(p.Op)))
	}
}

// Fits reports whether the predicate's constants fit in k bits — the
// validation every scan enforces on entry, exposed so a planner can
// reject a clause at registration time instead of at execution.
func (p Predicate) Fits(k int) bool {
	max := word.LowMask(k)
	return p.A <= max && (p.Op != Between || p.B <= max)
}

// check is the validation every scan and window evaluator runs once on
// entry: the operator must be one of the seven comparisons and the
// constants must fit in k bits. The kernels behind it then need no
// unknown-operator arm in their hot paths.
func (p Predicate) check(k int) {
	if p.Op < EQ || p.Op > Between {
		panic(fmt.Sprintf("scan: predicate operator %d is not a comparison", int(p.Op)))
	}
	if !p.Fits(k) {
		panic(fmt.Sprintf("scan: predicate constant does not fit in %d bits", k))
	}
}

// lanes names the staged comparison a predicate compiles to. A kernel
// stages only the lanes its operator reads, always next to the eq chain
// that drives the early stop (so the words compared do not depend on the
// operator family), and takes the complementary operator as one final
// inversion of the filter word:
//
//	lanesLT       lt+eq against A:                <  and >= (inverted)
//	lanesGT       gt+eq against A:                >  and <= (inverted)
//	lanesEQ       eq alone:                       =  and <> (inverted)
//	lanesBetween  lt+eq against A, gt+eq against B: BETWEEN is NOT(lt OR gt)
type lanes uint8

const (
	lanesLT lanes = iota
	lanesGT
	lanesEQ
	lanesBetween
)

// plan maps a checked operator to its lanes and whether the filter word
// is the complement of what the lanes accumulate.
func (o Op) plan() (l lanes, invert bool) {
	switch o {
	case LT:
		return lanesLT, false
	case GE:
		return lanesLT, true
	case GT:
		return lanesGT, false
	case LE:
		return lanesGT, true
	case EQ:
		return lanesEQ, false
	case NE:
		return lanesEQ, true
	default:
		return lanesBetween, true
	}
}
