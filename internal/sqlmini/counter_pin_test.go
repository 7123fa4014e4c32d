package sqlmini_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/sqlmini"
)

// Work-counter pin for the fold of the flat SQL routes into the one-shard
// store. The statements are the thirteen shapes the repo benchmark sends
// to its flat tables (scan_agg and group_rank, benchmark/workloads.go)
// over a uniform table with the same columns, built flat; the pinned
// numbers were recorded from the flat routes (fused Query, single-pass
// Grouped, bitmap executor) before they were deleted. A one-shard store
// must do exactly that work — scans, compared and touched words,
// aggregates, radix rounds, bank words — at any thread count.

const pinRows = 1 << 14

type pinCol struct {
	name   string
	bits   int
	layout bpagg.Layout
}

var pinCols = []pinCol{
	{"qty", 6, bpagg.HBP}, {"price", 20, bpagg.VBP}, {"disc", 4, bpagg.VBP}, {"ship", 12, bpagg.HBP},
	{"tax", 8, bpagg.VBP}, {"cust", 14, bpagg.HBP}, {"flag", 2, bpagg.VBP},
}

// pinLit is the literal L for which `col < L` selects share sel of a
// uniform bits-bit column.
func pinLit(bits int, sel float64) uint64 {
	return uint64(math.Round(sel * float64(uint64(1)<<uint(bits))))
}

var pinStmts = []string{
	fmt.Sprintf("SELECT SUM(price) WHERE disc < %d", pinLit(4, 0.5)),
	fmt.Sprintf("SELECT AVG(qty), COUNT(*) WHERE price < %d", pinLit(20, 0.01)),
	fmt.Sprintf("SELECT MIN(ship) WHERE qty < %d", pinLit(6, 0.9)),
	fmt.Sprintf("SELECT MAX(tax) WHERE cust < %d AND tax >= %d", pinLit(14, 0.1), pinLit(8, 0.1)),
	fmt.Sprintf("SELECT SUM(qty), SUM(price), AVG(disc), COUNT(*) WHERE ship <= %d", pinLit(12, 0.9)),
	"SELECT SUM(price) WHERE disc BETWEEN 5 AND 7 AND qty < 24",
	"SELECT COUNT(*), SUM(price) GROUP BY flag",
	fmt.Sprintf("SELECT COUNT(*), SUM(price), MAX(tax) WHERE qty < %d GROUP BY disc", pinLit(6, 0.5)),
	fmt.Sprintf("SELECT COUNT(*), SUM(price) WHERE cust < 4096 AND tax < %d GROUP BY cust", pinLit(8, 0.25)),
	fmt.Sprintf("SELECT COUNT(*), SUM(qty) WHERE tax < %d GROUP BY flag, disc", pinLit(8, 0.0625)),
	fmt.Sprintf("SELECT MEDIAN(price) WHERE disc < %d", pinLit(4, 0.5)),
	fmt.Sprintf("SELECT QUANTILE(ship, 0.9) WHERE tax < %d", pinLit(8, 0.5)),
	fmt.Sprintf("SELECT MEDIAN(qty) WHERE tax < %d GROUP BY disc", pinLit(8, 0.1)),
}

// pinCounters is {Scans, WordsCompared, WordsTouched, Aggregates,
// RadixRounds, GroupBankWords}.
type pinCounters [6]uint64

func pinOf(s bpagg.ExecStats) pinCounters {
	return pinCounters{s.Scans, s.WordsCompared, s.WordsTouched, s.Aggregates, s.RadixRounds, s.GroupBankWords}
}

// pinCatalog builds the uniform table flat, the way the benchmark hands
// its flat tables to the server.
func pinCatalog() *catalog.Catalog { return pinCatalogRows(pinRows) }

// pinCatalogRows is pinCatalog at another row count.
func pinCatalogRows(rows int) *catalog.Catalog {
	rng := rand.New(rand.NewSource(5))
	tbl := bpagg.NewTable()
	load := map[string][]uint64{}
	specs := make([]catalog.Spec, len(pinCols))
	for i, c := range pinCols {
		tbl.AddColumn(c.name, c.layout, c.bits)
		vals := make([]uint64, rows)
		for j := range vals {
			vals[j] = uint64(rng.Int63n(1 << uint(c.bits)))
		}
		load[c.name] = vals
		specs[i] = catalog.Spec{Name: c.name, Kind: catalog.Uint, Layout: c.layout, Bits: c.bits}
	}
	tbl.AppendColumnar(load)
	return &catalog.Catalog{Specs: specs, Table: tbl}
}

func TestSQLCounterPin(t *testing.T) {
	cat := pinCatalog()
	for i, sql := range pinStmts {
		for _, threads := range []int{1, 4} {
			if got := pinOf(pinStats(t, cat, sql, sqlmini.ExecOptions{Threads: threads})); got != pinnedSQL[i] {
				t.Errorf("%s (threads=%d)\n  {scans, compared, touched, aggs, radix, bank} = %v, pinned %v", sql, threads, got, pinnedSQL[i])
			}
		}
	}
}

// pinnedSQL is parallel to pinStmts; see the file comment. The grouped
// MEDIAN's aggs and radix were re-recorded when every group's rank became
// one radix descent: 16 per-group descents of one round each (32
// aggregates with the 16 counts) became one descent of one round (17).
// The scalar MIN and MAX were re-recorded when their kernels began to skip
// the windows whose zone cannot beat the prune block's extreme. The grouped
// MEDIAN's aggs were re-recorded (17 → 1) when a grouped statement stopped
// booking a COUNT(*) it did not name (results unchanged).
var pinnedSQL = []pinCounters{
	{1, 1024, 5120, 1, 0, 0},
	{1, 1228, 169, 1, 0, 0},
	{1, 105, 210, 1, 0, 0},
	{2, 508, 248, 1, 0, 0},
	{1, 2060, 7968, 3, 0, 0},
	{3, 3875, 5100, 1, 0, 0},
	{1, 512, 5120, 5, 0, 1024},
	{2, 2851, 7168, 18, 0, 3587},
	{3, 5864, 5060, 940, 0, 1057},
	{2, 5180, 1027, 65, 0, 1006},
	{1, 1024, 3358, 1, 20, 0},
	{1, 2028, 3751, 1, 2, 0},
	{2, 3064, 1684, 1, 1, 1416},
}

func pinStats(t *testing.T, cat *catalog.Catalog, sql string, o sqlmini.ExecOptions) bpagg.ExecStats {
	t.Helper()
	q, err := sqlmini.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rec := bpagg.NewStatsCollector()
	o.Stats = rec
	if _, err := sqlmini.Execute(cat, q, o); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rec.Snapshot()
}

// TestSelectOrderDoesNotChangeScans: fusion is all or nothing per
// statement, decided before the first aggregate runs. COUNT(*) over the
// VBP filter could fuse and AVG(qty) (HBP, another window width) cannot,
// so either order materializes each live shard's selection once.
func TestSelectOrderDoesNotChangeScans(t *testing.T) {
	flat, sharded := pinCatalog(), pinCatalog()
	sharded.Shard(1000)
	where := fmt.Sprintf(" WHERE price < %d", pinLit(20, 0.5))
	for _, cat := range []*catalog.Catalog{flat, sharded} {
		a := pinStats(t, cat, "SELECT COUNT(*), AVG(qty)"+where, sqlmini.ExecOptions{})
		b := pinStats(t, cat, "SELECT AVG(qty), COUNT(*)"+where, sqlmini.ExecOptions{})
		shards := uint64(cat.Store().NumShards())
		if a.Scans != shards || b.Scans != shards {
			t.Errorf("%d shards: COUNT(*),AVG scans %d, AVG,COUNT(*) scans %d, want one per shard", shards, a.Scans, b.Scans)
		}
	}
}

// statementBytes is what one execution of sql allocates, averaged over a
// few runs after a warm-up.
func statementBytes(t *testing.T, cat *catalog.Catalog, sql string) uint64 {
	t.Helper()
	bytes, _ := statementCost(t, cat, sql)
	return bytes
}

// statementCost is the bytes and allocations of one execution of sql at
// Threads 1: the least per-run average of a few batches after a warm-up,
// with the collector off while they run. What the runtime allocates
// besides (a pool refilled after the goroutine moved to another P) only
// adds, so the least batch is the statement's own figure.
func statementCost(t *testing.T, cat *catalog.Catalog, sql string) (bytes, allocs uint64) {
	t.Helper()
	q, err := sqlmini.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return runCost(func() {
		if _, err := sqlmini.Execute(cat, q, sqlmini.ExecOptions{Threads: 1}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	})
}

// runCost is statementCost for any call: the bytes and allocations of one
// run, the least per-run average of a few batches after a warm-up.
func runCost(run func()) (bytes, allocs uint64) {
	run()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const batches, runs = 5, 20
	bytes, allocs = math.MaxUint64, math.MaxUint64
	for b := 0; b < batches; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/runs)
		allocs = min(allocs, (m1.Mallocs-m0.Mallocs)/runs)
	}
	return bytes, allocs
}

var recordSQLBytes = flag.Bool("record-sql-bytes", false, "rewrite testdata/sql_bytes.golden with this toolchain's figures")

const sqlBytesFile = "testdata/sql_bytes.golden"

// TestSQLBytesLedger pins what each of TestSQLCounterPin's shapes
// allocates at Threads 1: bytes/op to ±2 % and allocs/op to ±2 % (at
// least one allocation). Allocation sizes follow the runtime, so the
// figures hold only on the Go version the golden names and without the
// race detector; another build logs its figures and checks nothing here,
// leaving the statements to TestSQLCounterPin's counters. Re-record with
//
//	go test ./internal/sqlmini -run TestSQLBytesLedger -record-sql-bytes
//
// and say in the change which line moved and why.
func TestSQLBytesLedger(t *testing.T) {
	cat := pinCatalog()
	var b strings.Builder
	fmt.Fprintf(&b, "# bytes/op allocs/op of each TestSQLCounterPin shape at Threads 1 (%d rows), %s\n", pinRows, runtime.Version())
	got := make([][2]uint64, len(pinStmts))
	for i, sql := range pinStmts {
		got[i][0], got[i][1] = statementCost(t, cat, sql)
		fmt.Fprintf(&b, "%d\t%d\t%s\n", got[i][0], got[i][1], sql)
	}
	if *recordSQLBytes {
		if err := os.WriteFile(sqlBytesFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sqlBytesFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !strings.HasSuffix(lines[0], " "+runtime.Version()) || raceEnabled {
		t.Logf("golden recorded on another toolchain or without the race detector (%s); this build measures:\n%s", lines[0], b.String())
		return
	}
	if len(lines)-1 != len(pinStmts) {
		t.Fatalf("%s has %d shapes, want %d", sqlBytesFile, len(lines)-1, len(pinStmts))
	}
	within := func(got, want uint64, slack uint64) bool {
		return got+slack >= want && got <= want+slack
	}
	for i, line := range lines[1:] {
		var bytes, allocs uint64
		if _, err := fmt.Sscanf(line, "%d\t%d\t", &bytes, &allocs); err != nil || !strings.HasSuffix(line, "\t"+pinStmts[i]) {
			t.Fatalf("%s line %d = %q, want bytes, allocs and %q", sqlBytesFile, i+2, line, pinStmts[i])
		}
		if !within(got[i][0], bytes, bytes/50) || !within(got[i][1], allocs, max(allocs/50, 1)) {
			t.Errorf("%s\n  %d bytes/op, %d allocs/op; pinned %d, %d", pinStmts[i], got[i][0], got[i][1], bytes, allocs)
		}
	}
}

// TestGroupedStatementBytes holds each grouped shape of pinStmts to what
// a one-pass GROUP BY must allocate, on a 2^17-row table so the table-sized
// terms dominate. A shape without a rank allocates at most
//
//	its ungrouped twin (same SELECT list and WHERE)
//	+ 320 B per group (keys, tallies, banks, rendered cells)
//	+ one chunk's scratch: 4 × (28 B per entry, 12 B + 16 B per further
//	  grouping column) × the entries of 8 192 rows (a chunk holds at most
//	  8 064: 4 096 rows rounded up to whole windows of every column), the 4
//	  covering the scratch's growth,
//
// which a table-sized run list of 12 B per entry breaks (keptListBytes
// holds the aggregates that still read that list). A grouped MEDIAN
// keeps that list and ranks one copy of it: at most its ungrouped twin, the
// per-group allowance and 32 B per entry (the list, sized from the
// selection before it fills, and the copy).
func TestGroupedStatementBytes(t *testing.T) {
	keptListBytes(t)
	const rows = 1 << 17
	cat := pinCatalogRows(rows)
	for _, sql := range pinStmts[6:] {
		cut := strings.Index(sql, " GROUP BY ")
		if cut < 0 {
			continue
		}
		st := pinStats(t, cat, sql, sqlmini.ExecOptions{Threads: 1})
		got, twin := statementBytes(t, cat, sql), statementBytes(t, cat, sql[:cut])
		keyCols := uint64(strings.Count(sql[cut:], ",") + 1)
		bound := twin + 320*st.GroupsDiscovered
		if strings.Contains(sql, "MEDIAN") {
			bound += 32 * st.GroupBankWords
		} else {
			bound += 4 * (12 + 16*(keyCols-1)) * st.GroupBankWords / (rows / 8192)
		}
		t.Logf("%s: %d bytes, bound %d (twin %d, %d groups, %d entries)", sql, got, bound, twin, st.GroupsDiscovered, st.GroupBankWords)
		if got > bound {
			t.Errorf("%s allocates %d bytes, more than the %d its twin, groups and entries allow", sql, got, bound)
		}
	}
}

// keptListBytes holds grouped aggregates over the kept run list (a library
// GroupByContext, answered by its per-group reads)
// to what the partition they read allocates, comparing calls of one run so
// the bound does not depend on the Go version. A grouped MEDIAN is one
// descent over a copy of the candidate words, no dearer than COUNT, SUM and
// MAX over the same partition; a SUM over a measure of another window
// width streams the run list in the measure's windows rather than copying
// it, so it costs at most a tenth more than the COUNT(*) alone.
func keptListBytes(t *testing.T) {
	t.Helper()
	cat, ctx := pinCatalog(), context.Background()
	kept := func(col string, lit uint64, by []string, cells ...func(g *bpagg.ShardedGrouped) error) uint64 {
		bytes, _ := runCost(func() {
			g, err := cat.Store().Query().Where(col, bpagg.Less(lit)).GroupByContext(ctx, by...)
			if err == nil {
				_, err = g.CountContext(ctx)
			}
			for _, cell := range cells {
				if err == nil {
					err = cell(g)
				}
			}
			if err != nil {
				t.Fatalf("GROUP BY %v WHERE %s < %d: %v", by, col, lit, err)
			}
		})
		return bytes
	}
	sum := func(column string) func(g *bpagg.ShardedGrouped) error {
		return func(g *bpagg.ShardedGrouped) error {
			_, err := g.AvgContext(ctx, column) // the SUM and the column's non-NULL count
			return err
		}
	}
	median := kept("tax", pinLit(8, 0.1), []string{"disc"}, func(g *bpagg.ShardedGrouped) error {
		_, _, err := g.MedianOkContext(ctx, "qty")
		return err
	})
	banked := kept("qty", pinLit(6, 0.5), []string{"disc"}, sum("price"), func(g *bpagg.ShardedGrouped) error {
		_, err := g.MaxContext(ctx, "tax")
		return err
	})
	t.Logf("kept list: grouped MEDIAN %d bytes, COUNT/SUM/MAX %d bytes", median, banked)
	if median > banked {
		t.Errorf("grouped MEDIAN(qty) over the kept list allocates %d bytes, more than the %d of COUNT, SUM and MAX", median, banked)
	}
	by := []string{"flag", "disc"}
	withSum, count := kept("tax", pinLit(8, 0.0625), by, sum("qty")), kept("tax", pinLit(8, 0.0625), by)
	t.Logf("kept list: COUNT(*), SUM(qty) %d bytes, COUNT(*) %d bytes", withSum, count)
	if withSum*10 > count*11 {
		t.Errorf("COUNT(*), SUM(qty) GROUP BY flag, disc over the kept list allocates %d bytes, more than 1.1 × the %d of COUNT(*) alone", withSum, count)
	}
}

// TestShardedRangeStatementCutsOnce: a ranged statement with a filter cuts
// each live shard's range selection once for all its aggregates, so three
// aggregates allocate less than one more selection per live shard than
// one does; each aggregate used to cut its own.
func TestShardedRangeStatementCutsOnce(t *testing.T) {
	const rows, shardRows = 1 << 16, 1 << 14
	cat := pinCatalogRows(rows)
	cat.Shard(shardRows)
	where := fmt.Sprintf(" WHERE rownum BETWEEN 100 AND %d AND disc < 8", rows-100)
	one := statementBytes(t, cat, "SELECT SUM(price)"+where)
	three := statementBytes(t, cat, "SELECT SUM(price), MAX(tax), COUNT(*)"+where)
	perSel := uint64(shardRows / 8) // the selection's bitmap alone
	t.Logf("1 aggregate %d bytes, 3 aggregates %d bytes", one, three)
	if shards := uint64(rows / shardRows); three >= one+shards*perSel {
		t.Errorf("3 aggregates allocate %d bytes, 1 aggregate %d: at least one more %d-byte selection per shard (%d shards)",
			three, one, perSel, shards)
	}
}
