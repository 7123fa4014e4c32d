package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"bpagg/internal/catalog"
	"bpagg/internal/oracle"
	"bpagg/internal/sqlmini"
)

// Answers are checked on the response body up to its volatile part: the
// server writes headers and rows first and elapsed_ms, stats after them,
// so the verified answer is a byte prefix of every correct response.
const answerEnd = `,"elapsed_ms":`

// answerPrefix renders headers and rows the way server.Response does.
func answerPrefix(headers []string, rows [][]string) []byte {
	b, err := json.Marshal(struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{headers, rows})
	if err != nil {
		panic(err) // strings always marshal
	}
	return append(b[:len(b)-1], answerEnd...)
}

// oracleAnswer computes a statement's answer with internal/oracle over
// the plain generated slices and renders it through the catalog's
// formatters. Only the grouping step is the harness's own (a bucket by
// key): oracle.GroupBy keeps one row mask per group, which at 4096 groups
// over 2^20 rows is 4 GiB.
func oracleAnswer(cat *catalog.Catalog, cols map[string][]uint64, rows int, sql string) ([]byte, error) {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, err := oracleSelect(q.Where, cols, rows)
	if err != nil {
		return nil, err
	}
	headers := append([]string(nil), q.GroupBy...)
	for _, s := range q.Selects {
		headers = append(headers, s.Label())
	}

	if len(q.GroupBy) == 0 {
		row, err := oracleRow(cat, q.Selects, func(name string) (*oracle.Column, []bool) {
			return oracle.New(cols[name]), sel
		})
		if err != nil {
			return nil, err
		}
		return answerPrefix(headers, [][]string{row}), nil
	}

	// Bucket the selected rows by composite key, most significant part
	// first, so ascending key order is the engine's group order.
	members := map[uint64][]int{}
	for i := 0; i < rows; i++ {
		if !sel[i] {
			continue
		}
		var key uint64
		for _, g := range q.GroupBy {
			key = key<<uint(cat.Spec(g).Bits) | cols[g][i]
		}
		members[key] = append(members[key], i)
	}
	keys := make([]uint64, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	out := make([][]string, 0, len(keys))
	for _, key := range keys {
		idx := members[key]
		row := make([]string, len(q.GroupBy))
		k := key
		for j := len(q.GroupBy) - 1; j >= 0; j-- {
			bits := uint(cat.Spec(q.GroupBy[j]).Bits)
			row[j] = cat.FormatValue(q.GroupBy[j], k&(1<<bits-1))
			k >>= bits
		}
		cells, err := oracleRow(cat, q.Selects, func(name string) (*oracle.Column, []bool) {
			vals := make([]uint64, len(idx))
			for j, i := range idx {
				vals[j] = cols[name][i]
			}
			c := oracle.New(vals)
			return c, c.All()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, append(row, cells...))
	}
	return answerPrefix(headers, out), nil
}

// oracleSelect evaluates the conjunction; rownum BETWEEN a AND b selects
// positions a..b inclusive.
func oracleSelect(conds []sqlmini.Condition, cols map[string][]uint64, rows int) ([]bool, error) {
	sel := make([]bool, rows)
	for i := range sel {
		sel[i] = true
	}
	for _, c := range conds {
		p, err := oraclePred(c)
		if err != nil {
			return nil, err
		}
		if c.Column == "rownum" {
			for i := range sel {
				sel[i] = sel[i] && p.Matches(uint64(i))
			}
			continue
		}
		vals, ok := cols[c.Column]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown column %q", c.Column)
		}
		sel = oracle.And(sel, oracle.New(vals).Select(p))
	}
	return sel, nil
}

// oraclePred maps a condition with whole-number literals (all the
// harness writes) onto the oracle's predicate.
func oraclePred(c sqlmini.Condition) (oracle.Pred, error) {
	ops := map[sqlmini.CmpOp]oracle.Op{
		sqlmini.OpEq: oracle.EQ, sqlmini.OpNe: oracle.NE, sqlmini.OpLt: oracle.LT, sqlmini.OpLe: oracle.LE,
		sqlmini.OpGt: oracle.GT, sqlmini.OpGe: oracle.GE, sqlmini.OpBetween: oracle.Between,
	}
	op, ok := ops[c.Op]
	if !ok {
		return oracle.Pred{}, fmt.Errorf("oracle: unsupported operator %v", c.Op)
	}
	p := oracle.Pred{Op: op}
	for i, l := range c.Lits {
		if l.IsString || l.Num < 0 || l.Num != float64(uint64(l.Num)) {
			return oracle.Pred{}, fmt.Errorf("oracle: literal %v is not a whole number", l)
		}
		if i == 0 {
			p.A = uint64(l.Num)
		} else {
			p.B = uint64(l.Num)
		}
	}
	return p, nil
}

// oracleRow evaluates the select list; column hands back the oracle
// column and the selection to aggregate it under.
func oracleRow(cat *catalog.Catalog, sels []sqlmini.SelectExpr, column func(name string) (*oracle.Column, []bool)) ([]string, error) {
	row := make([]string, len(sels))
	for i, s := range sels {
		name := s.Column
		if s.Func == sqlmini.CountStar {
			name = cat.Specs[0].Name
		}
		c, sel := column(name)
		opt := func(v uint64, ok bool) string {
			if !ok {
				return "NULL"
			}
			return cat.FormatValue(name, v)
		}
		switch s.Func {
		case sqlmini.CountStar:
			row[i] = strconv.FormatUint(oracle.CountRows(sel), 10)
		case sqlmini.Count:
			row[i] = strconv.FormatUint(c.Count(sel), 10)
		case sqlmini.Sum, sqlmini.Avg:
			sum, ok := c.SumUint64(sel)
			if !ok {
				return nil, fmt.Errorf("oracle: SUM(%s) overflows", name)
			}
			if s.Func == sqlmini.Sum {
				row[i] = cat.FormatSum(name, sum, c.Count(sel))
			} else {
				row[i] = cat.FormatAvg(name, sum, c.Count(sel))
			}
		case sqlmini.Min:
			row[i] = opt(c.Min(sel))
		case sqlmini.Max:
			row[i] = opt(c.Max(sel))
		case sqlmini.Median:
			row[i] = opt(c.Median(sel))
		case sqlmini.Quantile:
			row[i] = opt(c.Quantile(sel, s.Arg))
		default:
			return nil, fmt.Errorf("oracle: unsupported aggregate %v", s.Func)
		}
	}
	return row, nil
}
