package main

import (
	"fmt"
	"math"

	"bpagg"
)

// workload is one traffic mix against one table. Statements are SQL
// text, exactly what a client of bpaggd sends; literals come from target
// selectivities over the column domains, never from the seed, so every
// seed does the same amount of work.
type workload struct {
	name string
	why  string

	rows      int
	cols      []colDef
	shardRows int // 0: flat bpagg.Table; else ShardedTable with this shard size

	// conns closed-loop clients, each on one persistent connection.
	conns int
	// stmts is the statement list. With round set, one op is the whole
	// list sent back to back on one connection; otherwise one op is one
	// statement and each client walks the list as a cycle.
	stmts []string
	round bool
	// appends makes the workload append_probe: every op appends one
	// batch and then sends the four probes rendered by probeSQL.
	appends bool

	// probes are traced-only statements: one per ladder class the op
	// itself does not reach, so every per-layer metric is measured on
	// every workload's table.
	probes []string
	// ladderReps is the fixed repeat count of the traced ladder.
	ladderReps int
}

// lit is the literal L for which `col < L` selects share sel of a
// uniform bits-bit column.
func lit(bits int, sel float64) uint64 {
	return uint64(math.Round(sel * float64(uint64(1)<<uint(bits))))
}

// The columns every workload carries; the probes use only these.
var (
	colQty   = colDef{name: "qty", bits: 6, layout: bpagg.HBP}
	colPrice = colDef{name: "price", bits: 20, layout: bpagg.VBP}
	colDisc  = colDef{name: "disc", bits: 4, layout: bpagg.VBP}
	colShip  = colDef{name: "ship", bits: 12, layout: bpagg.HBP}
	colTax   = colDef{name: "tax", bits: 8, layout: bpagg.VBP}
	colCust  = colDef{name: "cust", bits: 14, layout: bpagg.HBP}
	colFlag  = colDef{name: "flag", bits: 2, layout: bpagg.VBP}
)

// Ascending keys: step leaves room for a random offset per row while the
// largest row count still fits the width.
const (
	serveTSStep  = 8 // ts:24 over 2^20 rows
	appendTSStep = 4 // ts:28 over at most 2^24 rows
)

const (
	appendPreload = 1 << 20 // rows loaded before the first append
	appendSwapAt  = 1 << 24 // rows at which a fresh pre-loaded table is swapped in
	appendWindow  = 1 << 16 // trailing rows the rownum probes cover
)

// shardedProbes are the probes of the sharded workloads, whose own
// statements start the ladder at the bpagg rung. They filter on the
// uniform columns only: the shard catalog cannot prune those, so the
// kernel rungs over a flat packing do the work the engine does shard by
// shard. The third reaches the hash tier through about 4000 distinct
// prices.
var shardedProbes = []string{
	fmt.Sprintf("SELECT SUM(price), COUNT(*) WHERE disc < %d", lit(4, 0.5)),
	"SELECT COUNT(*), SUM(price) GROUP BY disc",
	"SELECT COUNT(*), SUM(qty) WHERE price < 4096 GROUP BY price",
	fmt.Sprintf("SELECT MEDIAN(price) WHERE disc < %d", lit(4, 0.5)),
}

func workloads() []*workload {
	scanAgg := &workload{
		name:  "scan_agg",
		why:   "uniform 2^22-row flat table: zone maps and caches cannot help, so scan/core/vbp/hbp kernels set the time",
		rows:  1 << 22,
		cols:  []colDef{colQty, colPrice, colDisc, colShip, colTax, colCust},
		conns: 1, round: true,
		stmts: []string{
			// 50 %, VBP filter and VBP aggregate: fused.
			fmt.Sprintf("SELECT SUM(price) WHERE disc < %d", lit(4, 0.5)),
			// 1 %, VBP filter, HBP aggregate: window widths differ, two-phase.
			fmt.Sprintf("SELECT AVG(qty), COUNT(*) WHERE price < %d", lit(20, 0.01)),
			// 90 %, HBP filter and HBP aggregate of one window width: fused.
			fmt.Sprintf("SELECT MIN(ship) WHERE qty < %d", lit(6, 0.9)),
			// 10 % and 90 %, HBP and VBP conjuncts, VBP aggregate: fused.
			fmt.Sprintf("SELECT MAX(tax) WHERE cust < %d AND tax >= %d", lit(14, 0.1), lit(8, 0.1)),
			// Q1-shaped: four aggregates over one 90 % filter.
			fmt.Sprintf("SELECT SUM(qty), SUM(price), AVG(disc), COUNT(*) WHERE ship <= %d", lit(12, 0.9)),
			// Q6-shaped: BETWEEN ... AND <.
			fmt.Sprintf("SELECT SUM(price) WHERE disc BETWEEN 5 AND 7 AND qty < %d", 24),
		},
		probes: []string{
			"SELECT COUNT(*), SUM(price) GROUP BY disc",
			fmt.Sprintf("SELECT COUNT(*), SUM(price) WHERE cust < 4096 AND tax < %d GROUP BY cust", lit(8, 0.125)),
			fmt.Sprintf("SELECT MEDIAN(price) WHERE disc < %d", lit(4, 0.5)),
			"SELECT SUM(price) WHERE rownum BETWEEN 100000 AND 199999",
		},
		ladderReps: 9,
	}

	groupRank := &workload{
		name:  "group_rank",
		why:   "GROUP BY at 4, 16, 64 and 4096 groups plus MEDIAN/QUANTILE: partition, hash-bank and radix-rank kernels, no fused SUM path",
		rows:  1 << 19,
		cols:  []colDef{colQty, colPrice, colDisc, colShip, colTax, colCust, colFlag},
		conns: 1, round: true,
		stmts: []string{
			"SELECT COUNT(*), SUM(price) GROUP BY flag",
			fmt.Sprintf("SELECT COUNT(*), SUM(price), MAX(tax) WHERE qty < %d GROUP BY disc", lit(6, 0.5)),
			fmt.Sprintf("SELECT COUNT(*), SUM(price) WHERE cust < 4096 AND tax < %d GROUP BY cust", lit(8, 0.25)),
			fmt.Sprintf("SELECT COUNT(*), SUM(qty) WHERE tax < %d GROUP BY flag, disc", lit(8, 0.0625)),
			fmt.Sprintf("SELECT MEDIAN(price) WHERE disc < %d", lit(4, 0.5)),
			fmt.Sprintf("SELECT QUANTILE(ship, 0.9) WHERE tax < %d", lit(8, 0.5)),
			fmt.Sprintf("SELECT MEDIAN(qty) WHERE tax < %d GROUP BY disc", lit(8, 0.1)),
		},
		probes: []string{
			fmt.Sprintf("SELECT SUM(price) WHERE disc < %d", lit(4, 0.5)),
			"SELECT SUM(price) WHERE rownum BETWEEN 100000 AND 199999",
		},
		ladderReps: 9,
	}

	serveRows := 1 << 20
	tsAt := func(share float64) uint64 { return uint64(share*float64(serveRows)) * serveTSStep }
	serveSmall := &workload{
		name:      "serve_small",
		why:       "0.1-0.3 ms statements on a sharded table: index- and cache-served, so server, sqlmini, catalog and rangeidx are the cost",
		rows:      serveRows,
		cols:      []colDef{{name: "ts", bits: 24, layout: bpagg.VBP, step: serveTSStep}, colPrice, colQty, colDisc},
		shardRows: 1 << 16,
		conns:     2,
		stmts: []string{
			"SELECT SUM(price) WHERE rownum BETWEEN 1000 AND 1999",
			"SELECT MIN(price) WHERE rownum BETWEEN 100000 AND 199999",
			"SELECT MAX(price) WHERE rownum BETWEEN 5000 AND 1004999",
			"SELECT AVG(price) WHERE rownum BETWEEN 300000 AND 300999",
			fmt.Sprintf("SELECT SUM(price), COUNT(*) WHERE ts >= %d", tsAt(0.995)),
			fmt.Sprintf("SELECT MAX(qty) WHERE ts < %d", tsAt(0.005)),
			fmt.Sprintf("SELECT SUM(disc) WHERE ts BETWEEN %d AND %d", tsAt(0.5), tsAt(0.505)),
			"SELECT SUM(price) WHERE ts >= 0",
		},
		probes:     shardedProbes,
		ladderReps: 200,
	}

	appendProbe := &workload{
		name:       "append_probe",
		why:        "4096-row appends with four reads of the trailing data after each: zone, cache, index and epoch upkeep as a write path",
		rows:       appendPreload,
		cols:       []colDef{{name: "ts", bits: 28, layout: bpagg.VBP, step: appendTSStep}, colPrice, colQty, colDisc},
		shardRows:  1 << 16,
		conns:      1,
		appends:    true,
		stmts:      probeSQL(appendPreload),
		probes:     shardedProbes,
		ladderReps: 100,
	}
	return []*workload{scanAgg, groupRank, serveSmall, appendProbe}
}

// probeSQL renders append_probe's four reads for a table of rows rows
// whose last batch has just been appended.
func probeSQL(rows int) []string {
	lo := max(rows-appendWindow, 0)
	since := uint64(rows-batchRows) * appendTSStep
	return []string{
		fmt.Sprintf("SELECT SUM(price) WHERE rownum BETWEEN %d AND %d", lo, rows-1),
		fmt.Sprintf("SELECT MAX(price) WHERE rownum BETWEEN %d AND %d", lo, rows-1),
		fmt.Sprintf("SELECT COUNT(*) WHERE ts >= %d", since),
		fmt.Sprintf("SELECT SUM(price) WHERE ts >= %d", since),
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
