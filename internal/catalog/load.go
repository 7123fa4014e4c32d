package catalog

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"bpagg"
)

// Catalog is a typed view over a packed table: the schema, the data, and
// the per-column dictionaries. The data is either a partitioned store
// (Sharded) or a flat Table; readers never ask which — they call Store,
// which serves a flat table as the one-part store it is. Every binding
// and formatting helper consults only Specs and the dictionaries.
type Catalog struct {
	Specs   []Spec
	Table   *bpagg.Table
	Sharded *bpagg.ShardedTable
	dicts   map[string]*bpagg.Dict
}

// Store returns the partitioned store queries execute against: Sharded,
// or else Table's own one-part store (bpagg.PartitionTable), which the
// table's appends keep current.
func (c *Catalog) Store() *bpagg.ShardedTable {
	if c.Sharded != nil {
		return c.Sharded
	}
	return bpagg.PartitionTable(c.Table)
}

// Shard converts the catalog to sharded execution: the flat table is
// split into shards of shardRows rows each and dropped, so queries route
// through the partitioned store from then on.
func (c *Catalog) Shard(shardRows int) {
	if c.Sharded != nil || c.Table == nil {
		return
	}
	c.Sharded = bpagg.ShardTable(c.Table, shardRows)
	c.Table = nil
}

// Rows reports the store's row count.
func (c *Catalog) Rows() int { return c.Store().Rows() }

// Spec returns the named column's spec, or nil.
func (c *Catalog) Spec(name string) *Spec {
	for i := range c.Specs {
		if c.Specs[i].Name == name {
			return &c.Specs[i]
		}
	}
	return nil
}

// LoadCSV reads CSV with a header row into a new catalog. The header must
// contain every schema column (extra CSV columns are ignored). Empty cells
// load as NULL. String dictionaries are collected in a first pass, so the
// whole file is buffered; wide-table loads are one-time costs in this
// design (§III).
func LoadCSV(r io.Reader, specs []Spec) (*Catalog, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("catalog: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("catalog: CSV has no header row")
	}
	header := records[0]
	rows := records[1:]

	colIdx := make([]int, len(specs))
	for i, sp := range specs {
		colIdx[i] = -1
		for j, h := range header {
			if strings.TrimSpace(h) == sp.Name {
				colIdx[i] = j
				break
			}
		}
		if colIdx[i] == -1 {
			return nil, fmt.Errorf("catalog: CSV header missing column %q", sp.Name)
		}
	}

	// First pass: collect dictionary keys for string columns.
	cat := &Catalog{Specs: append([]Spec(nil), specs...), dicts: map[string]*bpagg.Dict{}}
	for i := range cat.Specs {
		sp := &cat.Specs[i]
		if sp.Kind != String {
			continue
		}
		seen := map[string]bool{}
		for _, rec := range rows {
			cell := rec[colIdx[i]]
			if cell == "" || seen[cell] {
				continue
			}
			seen[cell] = true
			sp.Keys = append(sp.Keys, cell)
		}
		sortKeys(sp)
	}
	cat.buildDicts()

	// Second pass: build standalone columns (NULLs go through AppendNull),
	// then assemble the table.
	names := make([]string, len(cat.Specs))
	cols := make([]*bpagg.Column, len(cat.Specs))
	for i := range cat.Specs {
		sp := &cat.Specs[i]
		names[i] = sp.Name
		cols[i] = bpagg.NewColumn(sp.Layout, sp.bits())
	}
	for rowNum, rec := range rows {
		for i := range cat.Specs {
			sp := &cat.Specs[i]
			cell := rec[colIdx[i]]
			if cell == "" {
				cols[i].AppendNull()
				continue
			}
			code, err := cat.encodeCell(sp, cell)
			if err != nil {
				return nil, fmt.Errorf("catalog: row %d column %q: %w", rowNum+2, sp.Name, err)
			}
			cols[i].Append(code)
		}
	}
	cat.Table = bpagg.NewTableFromColumns(names, cols)
	return cat, nil
}

func (c *Catalog) buildDicts() {
	for i := range c.Specs {
		sp := &c.Specs[i]
		if sp.Kind != String {
			continue
		}
		d := bpagg.NewDict()
		for _, k := range sp.Keys {
			d.Add(k)
		}
		d.Freeze()
		c.dicts[sp.Name] = d
	}
}

func sortKeys(sp *Spec) {
	sort.Strings(sp.Keys)
}

// encodeCell parses one CSV cell into the column's code.
func (c *Catalog) encodeCell(sp *Spec, cell string) (uint64, error) {
	switch sp.Kind {
	case Uint:
		v, err := strconv.ParseUint(strings.TrimSpace(cell), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad unsigned integer %q", cell)
		}
		if v > sp.maxCode() {
			return 0, fmt.Errorf("value %d exceeds %d bits", v, sp.Bits)
		}
		return v, nil
	case Decimal:
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil {
			return 0, fmt.Errorf("bad decimal %q", cell)
		}
		if v < 0 || v > sp.Max {
			return 0, fmt.Errorf("decimal %v outside [0, %v]", v, sp.Max)
		}
		return bpagg.Decimal{Scale: sp.Scale, Max: sp.Max}.Encode(v), nil
	case Int:
		v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", cell)
		}
		if v < sp.MinInt || v > sp.MaxInt {
			return 0, fmt.Errorf("integer %d outside [%d, %d]", v, sp.MinInt, sp.MaxInt)
		}
		return bpagg.Signed{Min: sp.MinInt, Max: sp.MaxInt}.Encode(v), nil
	case String:
		code, ok := c.dicts[sp.Name].Encode(cell)
		if !ok {
			return 0, fmt.Errorf("string %q not in dictionary", cell)
		}
		return code, nil
	}
	return 0, fmt.Errorf("unknown kind")
}

// persistHeader is the JSON schema header of the catalog stream.
type persistHeader struct {
	Version int    `json:"version"`
	Specs   []Spec `json:"specs"`
}

// WriteTo persists schema and data to one stream. A flat catalog writes
// the seed-era version-1 framing unchanged; a sharded catalog writes
// version 2 with the sharded container in place of the table stream, so
// old readers reject it cleanly instead of misparsing.
func (c *Catalog) WriteTo(w io.Writer) (int64, error) {
	version := 1
	if c.Sharded != nil {
		version = 2
	}
	hdr, err := json.Marshal(persistHeader{Version: version, Specs: c.Specs})
	if err != nil {
		return 0, err
	}
	var n int64
	lenBuf := []byte(fmt.Sprintf("%12d\n", len(hdr)))
	m, err := w.Write(lenBuf)
	n += int64(m)
	if err != nil {
		return n, err
	}
	m, err = w.Write(hdr)
	n += int64(m)
	if err != nil {
		return n, err
	}
	if c.Sharded != nil {
		tn, err := c.Sharded.WriteTo(w)
		return n + tn, err
	}
	tn, err := c.Table.WriteTo(w)
	return n + tn, err
}

// Read restores a catalog persisted by WriteTo.
func Read(r io.Reader) (*Catalog, error) {
	lenBuf := make([]byte, 13)
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, fmt.Errorf("catalog: reading header length: %w", err)
	}
	hlen, err := strconv.Atoi(strings.TrimSpace(string(lenBuf[:12])))
	if err != nil || hlen <= 0 || hlen > 1<<24 {
		return nil, fmt.Errorf("catalog: bad header length %q", lenBuf)
	}
	hdrBuf := make([]byte, hlen)
	if _, err := io.ReadFull(r, hdrBuf); err != nil {
		return nil, fmt.Errorf("catalog: reading header: %w", err)
	}
	var hdr persistHeader
	if err := json.Unmarshal(hdrBuf, &hdr); err != nil {
		return nil, fmt.Errorf("catalog: decoding header: %w", err)
	}
	switch hdr.Version {
	case 1:
		tbl, err := bpagg.ReadTable(r)
		if err != nil {
			return nil, err
		}
		cat := &Catalog{Specs: hdr.Specs, Table: tbl, dicts: map[string]*bpagg.Dict{}}
		for _, sp := range cat.Specs {
			if tbl.Column(sp.Name) == nil {
				return nil, fmt.Errorf("catalog: schema column %q missing from table", sp.Name)
			}
		}
		cat.buildDicts()
		return cat, nil
	case 2:
		st, err := bpagg.ReadShardedTable(r)
		if err != nil {
			return nil, err
		}
		have := map[string]bool{}
		for _, name := range st.Columns() {
			have[name] = true
		}
		cat := &Catalog{Specs: hdr.Specs, Sharded: st, dicts: map[string]*bpagg.Dict{}}
		for _, sp := range cat.Specs {
			if !have[sp.Name] {
				return nil, fmt.Errorf("catalog: schema column %q missing from table", sp.Name)
			}
		}
		cat.buildDicts()
		return cat, nil
	default:
		return nil, fmt.Errorf("catalog: unsupported version %d", hdr.Version)
	}
}

// --- Literal binding -------------------------------------------------------

// CodeRange is a numeric literal translated into code space: the greatest
// code <= the literal (Floor) and the least code >= it (Ceil). Exact means
// the literal is itself a code. Below/Above flag literals outside the
// column's domain.
type CodeRange struct {
	Floor, Ceil  uint64
	Exact        bool
	Below, Above bool
}

// NumToCode translates a numeric literal for comparisons on the column.
func (c *Catalog) NumToCode(col string, v float64) (CodeRange, error) {
	sp := c.Spec(col)
	if sp == nil {
		return CodeRange{}, fmt.Errorf("catalog: unknown column %q", col)
	}
	var scaled float64
	switch sp.Kind {
	case Uint:
		scaled = v
	case Decimal:
		scaled = v * math.Pow10(sp.Scale)
	case Int:
		scaled = v - float64(sp.MinInt)
	case String:
		return CodeRange{}, fmt.Errorf("catalog: numeric literal on string column %q", col)
	}
	max := sp.maxCode()
	if scaled < 0 {
		return CodeRange{Below: true}, nil
	}
	if scaled > float64(max) {
		return CodeRange{Above: true}, nil
	}
	fl := math.Floor(scaled)
	ce := math.Ceil(scaled)
	return CodeRange{
		Floor: uint64(fl),
		Ceil:  uint64(ce),
		Exact: fl == ce,
	}, nil
}

// StrToCode translates a string literal; ok is false for keys absent from
// the dictionary (which match nothing).
func (c *Catalog) StrToCode(col, s string) (code uint64, ok bool, err error) {
	sp := c.Spec(col)
	if sp == nil {
		return 0, false, fmt.Errorf("catalog: unknown column %q", col)
	}
	if sp.Kind != String {
		return 0, false, fmt.Errorf("catalog: string literal on %s column %q", sp.Kind, col)
	}
	code, ok = c.dicts[col].Encode(s)
	return code, ok, nil
}

// MaxCode returns the column's largest valid code (for all-non-null scans).
func (c *Catalog) MaxCode(col string) (uint64, error) {
	sp := c.Spec(col)
	if sp == nil {
		return 0, fmt.Errorf("catalog: unknown column %q", col)
	}
	return sp.maxCode(), nil
}

// --- Result formatting ------------------------------------------------------

// FormatValue renders a single code in the column's domain.
func (c *Catalog) FormatValue(col string, code uint64) string {
	sp := c.Spec(col)
	switch sp.Kind {
	case Uint:
		return strconv.FormatUint(code, 10)
	case Decimal:
		return strconv.FormatFloat(
			bpagg.Decimal{Scale: sp.Scale, Max: sp.Max}.Decode(code), 'f', sp.Scale, 64)
	case Int:
		return strconv.FormatInt(bpagg.Signed{Min: sp.MinInt, Max: sp.MaxInt}.Decode(code), 10)
	case String:
		return c.dicts[col].Decode(code)
	}
	return "?"
}

// FormatSum renders an aggregated sum of n codes in the column's domain.
func (c *Catalog) FormatSum(col string, sum uint64, n uint64) string {
	sp := c.Spec(col)
	switch sp.Kind {
	case Uint:
		return strconv.FormatUint(sum, 10)
	case Decimal:
		return strconv.FormatFloat(
			bpagg.Decimal{Scale: sp.Scale, Max: sp.Max}.DecodeSum(sum), 'f', sp.Scale, 64)
	case Int:
		return strconv.FormatInt(
			bpagg.Signed{Min: sp.MinInt, Max: sp.MaxInt}.DecodeSum(sum, n), 10)
	case String:
		return "(sum of strings)"
	}
	return "?"
}

// FormatAvg renders the mean given the code sum and count.
func (c *Catalog) FormatAvg(col string, sum uint64, n uint64) string {
	if n == 0 {
		return "NULL"
	}
	sp := c.Spec(col)
	switch sp.Kind {
	case Uint:
		return formatFloat(float64(sum) / float64(n))
	case Decimal:
		return formatFloat(bpagg.Decimal{Scale: sp.Scale, Max: sp.Max}.DecodeSum(sum) / float64(n))
	case Int:
		s := bpagg.Signed{Min: sp.MinInt, Max: sp.MaxInt}.DecodeSum(sum, n)
		return formatFloat(float64(s) / float64(n))
	case String:
		return "(avg of strings)"
	}
	return "?"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// Summable reports whether SUM/AVG make sense on the column.
func (c *Catalog) Summable(col string) bool {
	sp := c.Spec(col)
	return sp != nil && sp.Kind != String
}
