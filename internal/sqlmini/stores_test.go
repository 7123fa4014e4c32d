package sqlmini_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/server"
	"bpagg/internal/sqlmini"
)

// The SQL-level differential: a seeded generator draws statements over a
// schema with a NULL-bearing uint, a decimal, a signed int and a
// dictionary string; each statement runs through Execute on a flat-built
// catalog and on Shard(n) twins at three shard sizes (the largest holds
// every row in one shard) and through the bpaggd handler, at Threads 1 and
// 3 and with Auto. Rows, headers, error text and error type must agree
// across every store and equal the plain-slice evaluation below, which
// knows nothing of codes, bitmaps or shards.

const (
	storesSchema = "n:uint(7):hbp, d:decimal(2,500):vbp, s:int(-40,40):hbp, r:string"
	storesRows   = 700
)

var storesKeys = []string{"APAC", "EU", "LATAM", "MEA", "US"} // sorted: index order is code order

// storesData is the table as plain slices in logical units: n as is, d in
// cents, s as is, r as an index into storesKeys. null marks NULL cells
// (only n has any).
type storesData struct {
	vals map[string][]int
	null map[string][]bool
}

type storesTarget struct {
	name string
	run  func(sql string) storesOutcome
}

// storesOutcome is what one store answered. code is the HTTP status the
// error type maps to (DESIGN.md §13), which is how the handler reports
// the type.
type storesOutcome struct {
	headers []string
	rows    [][]string
	errText string
	code    int
}

var storesOnce struct {
	sync.Once
	data    storesData
	targets []storesTarget
	err     error
}

func storesFixture(tb testing.TB) (storesData, []storesTarget) {
	tb.Helper()
	storesOnce.Do(func() { storesOnce.data, storesOnce.targets, storesOnce.err = buildStores() })
	if storesOnce.err != nil {
		tb.Fatal(storesOnce.err)
	}
	return storesOnce.data, storesOnce.targets
}

func buildStores() (storesData, []storesTarget, error) {
	rng := rand.New(rand.NewSource(17))
	data := storesData{vals: map[string][]int{}, null: map[string][]bool{}}
	for _, c := range []string{"n", "d", "s", "r"} {
		data.vals[c] = make([]int, storesRows)
		data.null[c] = make([]bool, storesRows)
	}
	var csv strings.Builder
	csv.WriteString("n,d,s,r\n")
	for i := 0; i < storesRows; i++ {
		// d ascends with noise so shard bounds prune; s and r are skewed.
		n, d, s, r := rng.Intn(128), i*60+rng.Intn(90), rng.Intn(81)-40, rng.Intn(5)
		if rng.Intn(4) == 0 {
			s = rng.Intn(5) - 2
		}
		if d > 50000 {
			d = 50000
		}
		data.vals["n"][i], data.vals["d"][i], data.vals["s"][i], data.vals["r"][i] = n, d, s, r
		if rng.Intn(9) == 0 {
			data.null["n"][i] = true
			fmt.Fprintf(&csv, ",%d.%02d,%d,%s\n", d/100, d%100, s, storesKeys[r])
		} else {
			fmt.Fprintf(&csv, "%d,%d.%02d,%d,%s\n", n, d/100, d%100, s, storesKeys[r])
		}
	}
	specs, err := catalog.ParseSchema(storesSchema)
	if err != nil {
		return data, nil, err
	}
	load := func(shardRows int) (*catalog.Catalog, error) {
		cat, err := catalog.LoadCSV(strings.NewReader(csv.String()), specs)
		if err == nil && shardRows > 0 {
			cat.Shard(shardRows)
		}
		return cat, err
	}
	opts := []sqlmini.ExecOptions{{Threads: 1}, {Threads: 3}, {Threads: 3, Auto: true}}
	var targets []storesTarget
	for _, st := range []struct {
		name      string
		shardRows int
		serve     bool
	}{{"flat", 0, true}, {"shard64", 64, true}, {"shard300", 300, false}, {"shard1024", 1024, true}} {
		cat, err := load(st.shardRows)
		if err != nil {
			return data, nil, err
		}
		for _, o := range opts {
			o := o
			name := fmt.Sprintf("%s/threads=%d,auto=%v", st.name, o.Threads, o.Auto)
			targets = append(targets, storesTarget{name, func(sql string) storesOutcome {
				q, err := sqlmini.Parse(sql)
				if err != nil {
					return errOutcome(err)
				}
				res, err := sqlmini.Execute(cat, q, o)
				if err != nil {
					return errOutcome(err)
				}
				return storesOutcome{headers: res.Headers, rows: res.Rows, code: http.StatusOK}
			}})
			if !st.serve {
				continue
			}
			srv, err := server.New(server.Config{Catalog: cat, Exec: o})
			if err != nil {
				return data, nil, err
			}
			targets = append(targets, storesTarget{"bpaggd/" + name, func(sql string) storesOutcome {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(sql)))
				var resp server.Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					return storesOutcome{errText: "undecodable response: " + err.Error()}
				}
				return storesOutcome{headers: resp.Headers, rows: resp.Rows, errText: resp.Error, code: rec.Code}
			}})
		}
	}
	return data, targets, nil
}

func errOutcome(err error) storesOutcome {
	code := http.StatusInternalServerError
	var bad *sqlmini.BadQueryError
	var ov *bpagg.OverflowError
	switch {
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.As(err, &ov):
		code = http.StatusUnprocessableEntity
	}
	return storesOutcome{errText: err.Error(), code: code}
}

// --- statement generator ----------------------------------------------------

type storesSel struct {
	fn  string // COUNT(*), COUNT, SUM, AVG, MIN, MAX, MEDIAN, QUANTILE
	col string
	q   float64
}

// storesCond is one conjunct in the reference's terms: lits are in tenths
// of the column's logical unit (so a half-unit literal is exact), string
// literals are key indices (-1: not in the dictionary).
type storesCond struct {
	col  string
	op   string // = != < <= > >= between in
	lits []int
}

type storesStmt struct {
	sql     string
	sels    []storesSel
	conds   []storesCond
	rownum  [][2]float64 // inclusive real bounds, intersected
	groupBy []string
	wantErr bool
}

var storesNumeric = []string{"n", "d", "s"}

func genStoresStmt(rng *rand.Rand) storesStmt {
	var st storesStmt
	var sel, where []string

	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		s := storesSel{fn: []string{"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "QUANTILE"}[rng.Intn(8)]}
		s.col = []string{"n", "d", "s", "r"}[rng.Intn(4)]
		if rng.Intn(40) == 0 {
			s.col, st.wantErr = "nope", st.wantErr || s.fn != "COUNT(*)"
		}
		switch s.fn {
		case "COUNT(*)":
			sel = append(sel, "COUNT(*)")
		case "QUANTILE":
			s.q = []float64{0, 0.1, 0.25, 0.5, 0.9, 1}[rng.Intn(6)]
			sel = append(sel, fmt.Sprintf("QUANTILE(%s, %g)", s.col, s.q))
		default:
			sel = append(sel, fmt.Sprintf("%s(%s)", s.fn, s.col))
		}
		if (s.fn == "SUM" || s.fn == "AVG") && s.col == "r" {
			st.wantErr = true
		}
		st.sels = append(st.sels, s)
	}

	for i, n := 0, rng.Intn(4); i < n; i++ {
		if rng.Intn(4) == 0 {
			lo, hi := rowBound(rng), rowBound(rng)
			if rng.Intn(25) == 0 {
				where = append(where, fmt.Sprintf("rownum >= %g", lo))
				st.wantErr = true
				continue
			}
			where = append(where, fmt.Sprintf("rownum BETWEEN %g AND %g", lo, hi))
			st.rownum = append(st.rownum, [2]float64{lo, hi})
			continue
		}
		c, text, bad := genStoresCond(rng)
		st.conds = append(st.conds, c)
		st.wantErr = st.wantErr || bad
		where = append(where, text)
	}

	if rng.Intn(5) < 2 {
		cols := []string{"r", "s", "n", "d"}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		st.groupBy = cols[:1+rng.Intn(2)]
		if rng.Intn(40) == 0 {
			st.groupBy, st.wantErr = append(st.groupBy[:len(st.groupBy):len(st.groupBy)], "nope"), true
		}
	}

	st.sql = "SELECT " + strings.Join(sel, ", ")
	if len(where) > 0 {
		st.sql += " WHERE " + strings.Join(where, " AND ")
	}
	if len(st.groupBy) > 0 {
		st.sql += " GROUP BY " + strings.Join(st.groupBy, ", ")
	}
	return st
}

// rowBound draws a row position: mostly inside the table, sometimes
// negative, past the end or fractional.
func rowBound(rng *rand.Rand) float64 {
	b := float64(rng.Intn(storesRows+200) - 100)
	if rng.Intn(6) == 0 {
		b += 0.5
	}
	return b
}

func genStoresCond(rng *rand.Rand) (c storesCond, text string, bad bool) {
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "between", "in"}
	c.op = ops[rng.Intn(len(ops))]
	if rng.Intn(4) == 0 {
		c.col = "r"
		nlits := 1
		if c.op == "in" {
			nlits = 1 + rng.Intn(3)
		} else if c.op == "between" {
			nlits = 2
		}
		var lits []string
		for i := 0; i < nlits; i++ {
			k := rng.Intn(len(storesKeys)+1) - 1
			c.lits = append(c.lits, k)
			if k < 0 {
				lits = append(lits, "'ZZ'")
			} else {
				lits = append(lits, "'"+storesKeys[k]+"'")
			}
		}
		if rng.Intn(30) == 0 {
			lits[0], bad = "3", true // numeric literal on a string column
		}
		bad = bad || (c.op != "=" && c.op != "!=" && c.op != "in")
		return c, condText(c.col, c.op, lits), bad
	}
	c.col = storesNumeric[rng.Intn(3)]
	nlits := 1
	if c.op == "in" {
		nlits = 1 + rng.Intn(4)
	} else if c.op == "between" {
		nlits = 2
	}
	var lits []string
	for i := 0; i < nlits; i++ {
		l10, t := genNumLit(rng, c.col)
		c.lits = append(c.lits, l10)
		lits = append(lits, t)
	}
	switch rng.Intn(60) {
	case 0:
		lits[0], bad = "'EU'", true // string literal on a numeric column
	case 1:
		return c, condText("nope", c.op, lits), true
	}
	return c, condText(c.col, c.op, lits), bad
}

func condText(col, op string, lits []string) string {
	switch op {
	case "between":
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, lits[0], lits[1])
	case "in":
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(lits, ", "))
	}
	return fmt.Sprintf("%s %s %s", col, op, lits[0])
}

// genNumLit draws a literal for a numeric column in tenths of the
// column's unit, with its SQL text: in and out of domain, whole or half a
// unit. Decimal texts are kept to those whose float64 product with 100
// lands exactly where the text says, so the reference's integer compare
// and the binder's float floor/ceil read the same literal.
func genNumLit(rng *rand.Rand, col string) (int, string) {
	half := rng.Intn(5) == 0
	if col != "d" {
		v := rng.Intn(150) - 5
		if col == "s" {
			v = rng.Intn(100) - 50
		}
		switch {
		case !half:
			return v * 10, strconv.Itoa(v)
		case v < 0:
			return v*10 - 5, fmt.Sprintf("%d.5", v)
		}
		return v*10 + 5, fmt.Sprintf("%d.5", v)
	}
	for {
		cents := rng.Intn(56000) - 500
		if cents < 0 {
			return cents * 10, fmt.Sprintf("-%d.%02d", -cents/100, -cents%100)
		}
		text := fmt.Sprintf("%d.%02d", cents/100, cents%100)
		if half {
			text += "5"
		}
		f, _ := strconv.ParseFloat(text, 64)
		if half && math.Floor(f*100) == float64(cents) && math.Ceil(f*100) == float64(cents+1) {
			return cents*10 + 5, text
		}
		if !half && f*100 == float64(cents) {
			return cents * 10, text
		}
	}
}

// --- plain-slice evaluation -------------------------------------------------

func (d storesData) matches(c storesCond, i int) bool {
	if d.null[c.col][i] {
		return false
	}
	v := d.vals[c.col][i]
	if c.col != "r" {
		v *= 10
	}
	switch c.op {
	case "=":
		return v == c.lits[0]
	case "!=":
		return v != c.lits[0]
	case "<":
		return v < c.lits[0]
	case "<=":
		return v <= c.lits[0]
	case ">":
		return v > c.lits[0]
	case ">=":
		return v >= c.lits[0]
	case "between":
		return v >= c.lits[0] && v <= c.lits[1]
	}
	for _, l := range c.lits {
		if v == l {
			return true
		}
	}
	return false
}

func (d storesData) format(col string, v int) string {
	switch col {
	case "d":
		return strconv.FormatFloat(float64(v)/100, 'f', 2, 64)
	case "r":
		return storesKeys[v]
	}
	return strconv.Itoa(v)
}

func (d storesData) cell(s storesSel, rows []int) string {
	if s.fn == "COUNT(*)" {
		return strconv.Itoa(len(rows))
	}
	var vals []int
	sum := 0
	for _, i := range rows {
		if !d.null[s.col][i] {
			vals = append(vals, d.vals[s.col][i])
			sum += d.vals[s.col][i]
		}
	}
	sort.Ints(vals)
	rank := func(r int) string {
		if len(vals) == 0 {
			return "NULL"
		}
		return d.format(s.col, vals[r-1])
	}
	switch s.fn {
	case "COUNT":
		return strconv.Itoa(len(vals))
	case "SUM":
		return d.format(s.col, sum)
	case "AVG":
		if len(vals) == 0 {
			return "NULL"
		}
		total := float64(sum)
		if s.col == "d" {
			total /= 100
		}
		return strconv.FormatFloat(total/float64(len(vals)), 'f', 4, 64)
	case "MIN":
		return rank(1)
	case "MAX":
		return rank(len(vals))
	case "MEDIAN":
		return rank((len(vals) + 1) / 2)
	}
	// QUANTILE is the nearest rank ceil(q·count), floored at 1.
	r := int(math.Ceil(float64(len(vals))*s.q - 1e-9))
	return rank(max(r, 1))
}

func (d storesData) eval(st storesStmt) (headers []string, rows [][]string) {
	headers = append(headers, st.groupBy...)
	for _, s := range st.sels {
		switch s.fn {
		case "COUNT(*)":
			headers = append(headers, "count(*)")
		case "QUANTILE":
			headers = append(headers, fmt.Sprintf("quantile(%s,%g)", s.col, s.q))
		default:
			headers = append(headers, strings.ToLower(s.fn)+"("+s.col+")")
		}
	}
	var selected []int
rows:
	for i := 0; i < storesRows; i++ {
		for _, b := range st.rownum {
			if float64(i) < b[0] || float64(i) > b[1] {
				continue rows
			}
		}
		for _, c := range st.conds {
			if !d.matches(c, i) {
				continue rows
			}
		}
		selected = append(selected, i)
	}
	if len(st.groupBy) == 0 {
		row := make([]string, len(st.sels))
		for j, s := range st.sels {
			row[j] = d.cell(s, selected)
		}
		return headers, [][]string{row}
	}
	// Rows NULL in a grouping column belong to no group; groups come out
	// in ascending key order, first column most significant.
	key := func(i int) []int {
		k := make([]int, len(st.groupBy))
		for j, g := range st.groupBy {
			k[j] = d.vals[g][i]
		}
		return k
	}
	var grouped []int
	for _, i := range selected {
		null := false
		for _, g := range st.groupBy {
			null = null || d.null[g][i]
		}
		if !null {
			grouped = append(grouped, i)
		}
	}
	sort.SliceStable(grouped, func(a, b int) bool {
		ka, kb := key(grouped[a]), key(grouped[b])
		for j := range ka {
			if ka[j] != kb[j] {
				return ka[j] < kb[j]
			}
		}
		return false
	})
	for lo := 0; lo < len(grouped); {
		hi := lo + 1
		for hi < len(grouped) && reflect.DeepEqual(key(grouped[hi]), key(grouped[lo])) {
			hi++
		}
		var row []string
		for j, g := range st.groupBy {
			row = append(row, d.format(g, key(grouped[lo])[j]))
		}
		for _, s := range st.sels {
			row = append(row, d.cell(s, grouped[lo:hi]))
		}
		rows = append(rows, row)
		lo = hi
	}
	return headers, rows
}

// checkStoresStmt runs one statement everywhere and reports every
// disagreement: with the plain-slice answer when the statement is valid,
// with an error (of one text and one type everywhere) when it is not.
func checkStoresStmt(t *testing.T, st storesStmt) {
	t.Helper()
	data, targets := storesFixture(t)
	var first storesOutcome
	for i, tg := range targets {
		got := tg.run(st.sql)
		if st.wantErr {
			if got.errText == "" {
				t.Errorf("%s\n  %s: answered %v, want an error", st.sql, tg.name, got.rows)
				continue
			}
			if i == 0 {
				first = got
			} else if got.errText != first.errText || got.code != first.code {
				t.Errorf("%s\n  %s: error %q (status %d)\n  %s: error %q (status %d)",
					st.sql, targets[0].name, first.errText, first.code, tg.name, got.errText, got.code)
			}
			continue
		}
		if got.errText != "" {
			t.Errorf("%s\n  %s: error %q (status %d)", st.sql, tg.name, got.errText, got.code)
			continue
		}
		headers, rows := data.eval(st)
		if strings.HasPrefix(tg.name, "bpaggd/") && len(rows) == 0 {
			got.rows = nil // the JSON body omits an empty row list
		}
		if !reflect.DeepEqual(got.headers, headers) || !reflect.DeepEqual(got.rows, rows) {
			t.Errorf("%s\n  %s: %v %#v\n  plain slices: %v %#v", st.sql, tg.name, got.headers, got.rows, headers, rows)
		}
	}
}

func TestGenerativeQueriesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for i := 0; i < 400 && !t.Failed(); i++ {
		checkStoresStmt(t, genStoresStmt(rng))
	}
}

// FuzzSQLStores drives the same generator from fuzzed seeds; the corpus
// under testdata/fuzz names the statement shape each seed draws.
func FuzzSQLStores(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkStoresStmt(t, genStoresStmt(rand.New(rand.NewSource(seed))))
	})
}
