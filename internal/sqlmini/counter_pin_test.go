package sqlmini_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
func pinCatalog() *catalog.Catalog {
	rng := rand.New(rand.NewSource(5))
	tbl := bpagg.NewTable()
	load := map[string][]uint64{}
	specs := make([]catalog.Spec, len(pinCols))
	for i, c := range pinCols {
		tbl.AddColumn(c.name, c.layout, c.bits)
		vals := make([]uint64, pinRows)
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
var pinnedSQL = []pinCounters{
	{1, 1024, 5120, 1, 0, 0},
	{1, 1228, 169, 1, 0, 0},
	{1, 1820, 3640, 1, 0, 0},
	{2, 4207, 2040, 1, 0, 0},
	{1, 2060, 7968, 3, 0, 0},
	{3, 3875, 5100, 1, 0, 0},
	{1, 512, 5120, 5, 0, 1024},
	{2, 2851, 7168, 18, 0, 3587},
	{3, 5864, 5060, 940, 0, 1057},
	{2, 5180, 1027, 65, 0, 1006},
	{1, 1024, 3358, 1, 20, 0},
	{1, 2028, 3751, 1, 2, 0},
	{2, 3064, 1684, 17, 1, 1416},
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

// TestAutoKeepsFusion: Auto governs two-phase aggregates only. A fusible
// statement so selective that Auto would reconstruct its rows from a
// bitmap fuses on every store, with the counters of a run without Auto;
// the same filter under an aggregate that cannot fuse does reconstruct.
func TestAutoKeepsFusion(t *testing.T) {
	flat, sharded := pinCatalog(), pinCatalog()
	sharded.Shard(1000)
	where := fmt.Sprintf(" WHERE price < %d", pinLit(20, 0.01))
	for _, cat := range []*catalog.Catalog{flat, sharded} {
		plain := pinStats(t, cat, "SELECT SUM(price)"+where, sqlmini.ExecOptions{})
		auto := pinStats(t, cat, "SELECT SUM(price)"+where, sqlmini.ExecOptions{Auto: true})
		if auto.ReconstructedRows != 0 || pinOf(auto) != pinOf(plain) || auto.SegmentsCacheServed != plain.SegmentsCacheServed {
			t.Errorf("%d shards: fusible statement under Auto recorded %+v, without %+v", cat.Store().NumShards(), auto, plain)
		}
		if two := pinStats(t, cat, "SELECT SUM(qty)"+where, sqlmini.ExecOptions{Auto: true}); two.ReconstructedRows == 0 {
			t.Errorf("%d shards: two-phase statement under Auto reconstructed nothing: %+v", cat.Store().NumShards(), two)
		}
	}
}

// statementBytes is what one execution of sql allocates, averaged over a
// few runs after a warm-up.
func statementBytes(t *testing.T, cat *catalog.Catalog, sql string) uint64 {
	t.Helper()
	q, err := sqlmini.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := sqlmini.Execute(cat, q, sqlmini.ExecOptions{Threads: 1}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 25
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// TestGroupedStatementBytes holds grouped aggregates to what the partition
// they read allocates, comparing statements of one run so the bound does not
// depend on the Go version. A grouped MEDIAN is one descent over a copy of
// the candidate words, no dearer than COUNT, SUM and MAX over the same
// partition; a SUM over a measure of another window width streams the run
// list in the measure's windows rather than copying it, so it costs at most
// a tenth more than the COUNT(*) alone.
func TestGroupedStatementBytes(t *testing.T) {
	cat := pinCatalog()
	median, banked := statementBytes(t, cat, pinStmts[12]), statementBytes(t, cat, pinStmts[7])
	t.Logf("grouped MEDIAN %d bytes, COUNT/SUM/MAX %d bytes", median, banked)
	if median > banked {
		t.Errorf("%s allocates %d bytes, more than the %d of %s", pinStmts[12], median, banked, pinStmts[7])
	}
	where := fmt.Sprintf(" WHERE tax < %d GROUP BY flag, disc", pinLit(8, 0.0625))
	sum, count := statementBytes(t, cat, "SELECT COUNT(*), SUM(qty)"+where), statementBytes(t, cat, "SELECT COUNT(*)"+where)
	t.Logf("COUNT(*), SUM(qty) %d bytes, COUNT(*) %d bytes", sum, count)
	if sum*10 > count*11 {
		t.Errorf("COUNT(*), SUM(qty)%s allocates %d bytes, more than 1.1 × the %d of COUNT(*) alone", where, sum, count)
	}
}
