package sqlmini

import (
	"fmt"
	"strings"
)

// AggFunc is an aggregate function name.
type AggFunc int

// Aggregate functions of the SELECT list.
const (
	CountStar AggFunc = iota
	Count
	Sum
	Avg
	Min
	Max
	Median
	Quantile
)

// String returns the SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case CountStar:
		return "COUNT(*)"
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Median:
		return "MEDIAN"
	case Quantile:
		return "QUANTILE"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// SelectExpr is one aggregate of the SELECT list.
type SelectExpr struct {
	Func   AggFunc
	Column string  // empty for COUNT(*)
	Arg    float64 // QUANTILE's q
}

// Label renders the expression for result headers.
func (s SelectExpr) Label() string {
	switch s.Func {
	case CountStar:
		return "count(*)"
	case Quantile:
		return fmt.Sprintf("quantile(%s,%g)", s.Column, s.Arg)
	default:
		return strings.ToLower(s.Func.String()) + "(" + s.Column + ")"
	}
}

// CmpOp is a predicate comparison operator.
type CmpOp int

// Predicate operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpIn
)

// String returns the SQL spelling of the operator (BETWEEN and IN render
// through Condition.String, which owns their literal layout).
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Literal is a constant of a predicate: either numeric or string.
type Literal struct {
	IsString bool
	Str      string
	Num      float64 // numeric literals parse as float64; binders narrow
	Neg      bool    // the literal carried a leading minus
}

// String renders the literal in SQL form.
func (l Literal) String() string {
	if l.IsString {
		return "'" + l.Str + "'"
	}
	return fmt.Sprintf("%g", l.Num)
}

// Condition is one conjunctive predicate: Column Op Lits.
// OpBetween uses Lits[0..1]; OpIn uses all of Lits; others use Lits[0].
type Condition struct {
	Column string
	Op     CmpOp
	Lits   []Literal
}

// String renders the condition in SQL form (used by EXPLAIN plans).
func (c Condition) String() string {
	switch c.Op {
	case OpBetween:
		if len(c.Lits) >= 2 {
			return fmt.Sprintf("%s BETWEEN %s AND %s", c.Column, c.Lits[0], c.Lits[1])
		}
	case OpIn:
		parts := make([]string, len(c.Lits))
		for i, l := range c.Lits {
			parts[i] = l.String()
		}
		return fmt.Sprintf("%s IN (%s)", c.Column, strings.Join(parts, ", "))
	default:
		if len(c.Lits) >= 1 {
			return fmt.Sprintf("%s %s %s", c.Column, c.Op, c.Lits[0])
		}
	}
	return fmt.Sprintf("%s %s ?", c.Column, c.Op)
}

// Query is a parsed aggregate query.
type Query struct {
	Selects []SelectExpr
	From    string // optional, informational only
	Where   []Condition
	GroupBy []string // empty when ungrouped; several columns form a composite key
	// Explain marks an EXPLAIN ANALYZE query: execute fully, but return
	// the per-stage plan with execution statistics instead of the rows.
	Explain bool
}
