package catalog

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"bpagg"
)

const ordersSchema = "price:decimal(2,105000):vbp, qty:uint(6):hbp, delta:int(-100,100), region:string"

const ordersCSV = `region,price,qty,delta,ignored
EU,10.50,5,-20,x
US,99.99,24,0,y
EU,0.01,1,100,z
APAC,50000.00,50,-100,w
US,,3,,v
`

func TestParseSchema(t *testing.T) {
	specs, err := ParseSchema(ordersSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Kind != Decimal || specs[0].Scale != 2 || specs[0].Max != 105000 ||
		specs[0].Layout != bpagg.VBP {
		t.Errorf("price spec = %+v", specs[0])
	}
	if specs[1].Kind != Uint || specs[1].Bits != 6 || specs[1].Layout != bpagg.HBP {
		t.Errorf("qty spec = %+v", specs[1])
	}
	if specs[2].Kind != Int || specs[2].MinInt != -100 || specs[2].MaxInt != 100 {
		t.Errorf("delta spec = %+v", specs[2])
	}
	if specs[3].Kind != String {
		t.Errorf("region spec = %+v", specs[3])
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []string{
		"",
		"x",
		"x:frob(1)",
		"x:uint",
		"x:uint(0)",
		"x:uint(65)",
		"x:uint(8):mid",
		"x:decimal(2)",
		"x:decimal(-1,10)",
		"x:decimal(2,0)",
		"x:int(5,5)",
		"x:int(a,b)",
		"x:string(4)",
		"x:uint(8),x:uint(8)",
		"x:uint(8:vbp",
		":uint(8)",
	}
	for _, s := range cases {
		if _, err := ParseSchema(s); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", s)
		}
	}
}

func loadOrders(t *testing.T) *Catalog {
	t.Helper()
	specs, err := ParseSchema(ordersSchema)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCSV(strings.NewReader(ordersCSV), specs)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestLoadCSV(t *testing.T) {
	cat := loadOrders(t)
	if cat.Table.Rows() != 5 {
		t.Fatalf("rows = %d", cat.Table.Rows())
	}
	price := cat.Table.Column("price")
	if price.NullCount() != 1 || !price.IsNull(4) {
		t.Errorf("price nulls = %d", price.NullCount())
	}
	if got := cat.FormatValue("price", price.Value(0)); got != "10.50" {
		t.Errorf("price[0] = %q", got)
	}
	region := cat.Table.Column("region")
	if got := cat.FormatValue("region", region.Value(3)); got != "APAC" {
		t.Errorf("region[3] = %q", got)
	}
	delta := cat.Table.Column("delta")
	if got := cat.FormatValue("delta", delta.Value(0)); got != "-20" {
		t.Errorf("delta[0] = %q", got)
	}
	// Sorted dictionary: APAC < EU < US.
	if sp := cat.Spec("region"); len(sp.Keys) != 3 || sp.Keys[0] != "APAC" || sp.Keys[2] != "US" {
		t.Errorf("region keys = %v", cat.Spec("region").Keys)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	specs, _ := ParseSchema("a:uint(4)")
	cases := []string{
		"",         // no header
		"b\n1\n",   // missing column
		"a\nxyz\n", // bad number
		"a\n99\n",  // overflows 4 bits
	}
	for _, csvText := range cases {
		if _, err := LoadCSV(strings.NewReader(csvText), specs); err == nil {
			t.Errorf("LoadCSV(%q) succeeded, want error", csvText)
		}
	}
	dec, _ := ParseSchema("d:decimal(2,10)")
	if _, err := LoadCSV(strings.NewReader("d\n10.01\n"), dec); err == nil {
		t.Error("decimal above max accepted")
	}
	in, _ := ParseSchema("i:int(0,5)")
	if _, err := LoadCSV(strings.NewReader("i\n-1\n"), in); err == nil {
		t.Error("int below min accepted")
	}
}

func TestCatalogPersistRoundTrip(t *testing.T) {
	cat := loadOrders(t)
	var buf bytes.Buffer
	if _, err := cat.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Rows() != 5 {
		t.Fatalf("rows after restore = %d", got.Table.Rows())
	}
	// Dictionary survives: region decode works.
	region := got.Table.Column("region")
	if v := got.FormatValue("region", region.Value(0)); v != "EU" {
		t.Errorf("region[0] after restore = %q", v)
	}
	// Aggregates match.
	wantSum := cat.Table.Query().Sum("qty")
	if gotSum := got.Table.Query().Sum("qty"); gotSum != wantSum {
		t.Errorf("qty sum after restore = %d, want %d", gotSum, wantSum)
	}
	// NULLs survive.
	if got.Table.Column("price").NullCount() != 1 {
		t.Error("price null lost in round trip")
	}
}

func TestCatalogReadRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "garbage", "          12\nnot json....."} {
		if _, err := Read(strings.NewReader(data)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", data)
		}
	}
}

func TestNumToCode(t *testing.T) {
	cat := loadOrders(t)
	// price is decimal(2): 10.005 sits between codes 1000 and 1001.
	cr, err := cat.NumToCode("price", 10.005)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Exact || cr.Floor != 1000 || cr.Ceil != 1001 || cr.Below || cr.Above {
		t.Errorf("price 10.005 -> %+v", cr)
	}
	cr, _ = cat.NumToCode("price", 10.50)
	if !cr.Exact || cr.Floor != 1050 {
		t.Errorf("price 10.50 -> %+v", cr)
	}
	cr, _ = cat.NumToCode("price", -1)
	if !cr.Below {
		t.Errorf("price -1 -> %+v", cr)
	}
	cr, _ = cat.NumToCode("price", 1e12)
	if !cr.Above {
		t.Errorf("price 1e12 -> %+v", cr)
	}
	// delta is int(-100,100): -20 maps to code 80.
	cr, _ = cat.NumToCode("delta", -20)
	if !cr.Exact || cr.Floor != 80 {
		t.Errorf("delta -20 -> %+v", cr)
	}
	if _, err := cat.NumToCode("region", 5); err == nil {
		t.Error("numeric literal on string column accepted")
	}
	if _, err := cat.NumToCode("nope", 5); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestStrToCode(t *testing.T) {
	cat := loadOrders(t)
	code, ok, err := cat.StrToCode("region", "EU")
	if err != nil || !ok {
		t.Fatalf("EU: %v %v", ok, err)
	}
	if got := cat.FormatValue("region", code); got != "EU" {
		t.Errorf("EU code round trip = %q", got)
	}
	if _, ok, _ := cat.StrToCode("region", "MARS"); ok {
		t.Error("unknown key reported ok")
	}
	if _, _, err := cat.StrToCode("qty", "x"); err == nil {
		t.Error("string literal on uint column accepted")
	}
}

func TestFormatters(t *testing.T) {
	cat := loadOrders(t)
	if got := cat.FormatSum("price", 1050+9999, 2); got != "110.49" {
		t.Errorf("FormatSum price = %q", got)
	}
	if got := cat.FormatSum("qty", 29, 2); got != "29" {
		t.Errorf("FormatSum qty = %q", got)
	}
	// delta codes 80 (-20) and 100 (0): sum decodes to -20.
	if got := cat.FormatSum("delta", 180, 2); got != "-20" {
		t.Errorf("FormatSum delta = %q", got)
	}
	if got := cat.FormatAvg("qty", 29, 2); got != "14.5000" {
		t.Errorf("FormatAvg qty = %q", got)
	}
	if got := cat.FormatAvg("qty", 0, 0); got != "NULL" {
		t.Errorf("FormatAvg empty = %q", got)
	}
	if !cat.Summable("price") || cat.Summable("region") {
		t.Error("Summable wrong")
	}
}

// TestStoreAdoptsFlatTableOnce: Store serves a flat table as a one-shard
// store over the same columns, adopted exactly once however many queries
// ask at the same moment; a sharded catalog is its own store.
func TestStoreAdoptsFlatTableOnce(t *testing.T) {
	cat := loadOrders(t)
	stores := make([]*bpagg.ShardedTable, 8)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = cat.Store()
		}(i)
	}
	wg.Wait()
	for i, st := range stores {
		if st != stores[0] {
			t.Fatalf("goroutine %d adopted its own store", i)
		}
	}
	st := cat.Store()
	if st.NumShards() != 1 || st.Rows() != cat.Table.Rows() || cat.Rows() != 5 {
		t.Fatalf("adopted store: %d shards, %d rows", st.NumShards(), st.Rows())
	}
	if got, want := st.Query().Sum("qty"), cat.Table.Query().Sum("qty"); got != want {
		t.Errorf("store SUM(qty) = %d, table %d", got, want)
	}
	if _, _, _, words := st.ColumnInfo("qty"); words != cat.Table.Column("qty").MemoryWords() {
		t.Errorf("adoption copied the column: %d words, table has %d", words, cat.Table.Column("qty").MemoryWords())
	}

	cat.Shard(2)
	if cat.Store() != cat.Sharded || cat.Store().NumShards() != 3 {
		t.Errorf("sharded catalog's store is not its Sharded table")
	}
}
