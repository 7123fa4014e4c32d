// Command bpagg is a small analytical query tool over bit-packed columnar
// files: load CSV data into a packed table once, then run aggregate
// queries against it at bit-parallel speed.
//
//	bpagg load  -csv sales.csv -schema 'price:decimal(2,105000),qty:uint(6):hbp,region:string' -out sales.bpag
//	bpagg load  -csv sales.csv -schema '...' -shard-rows 65536 -out sales.bpag   # sharded partitioned store
//	bpagg query -table sales.bpag 'SELECT SUM(price), MEDIAN(qty) WHERE region = "EU" GROUP BY region'
//	bpagg info  -table sales.bpag
//
// The query language is the aggregate subset the paper's wide-table
// setting reduces everything to: SELECT of aggregates (COUNT(*), COUNT,
// SUM, AVG, MIN, MAX, MEDIAN, QUANTILE(col, q)), a WHERE conjunction of
// simple predicates (=, !=, <, <=, >, >=, BETWEEN, IN), and an optional
// GROUP BY over one column.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -http
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/sqlmini"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "load":
		err = cmdLoad(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bpagg: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "bpagg: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "bpagg:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bpagg load  -csv FILE -schema SPEC [-shard-rows N] -out FILE
              pack CSV into a .bpag table (N > 0 splits it into a
              sharded partitioned store with shard-catalog pruning)
  bpagg query -table FILE [-threads N] [-timeout D] [-stats] [-http ADDR] [SQL]
              (omit SQL for an interactive session reading stdin)
  bpagg info  -table FILE

schema SPEC is comma-separated name:type[:layout] with types
  uint(bits) | decimal(scale,max) | int(min,max) | string
and layouts vbp (default) | hbp.

-timeout bounds each query (e.g. -timeout 2s); ctrl-C cancels the
query in flight (and, in the interactive session, returns to the
prompt instead of killing the process).`)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input CSV file with a header row")
	schema := fs.String("schema", "", "schema specification")
	out := fs.String("out", "", "output .bpag file")
	shardRows := fs.Int("shard-rows", 0, "split into shards of this many rows (0 = flat table)")
	fs.Parse(args)
	if *csvPath == "" || *schema == "" || *out == "" {
		return fmt.Errorf("load needs -csv, -schema and -out")
	}
	specs, err := catalog.ParseSchema(*schema)
	if err != nil {
		return err
	}
	in, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer in.Close()

	start := time.Now()
	cat, err := catalog.LoadCSV(bufio.NewReader(in), specs)
	if err != nil {
		return err
	}
	if *shardRows > 0 {
		cat.Shard(*shardRows)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	n, err := cat.WriteTo(w)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *shardRows > 0 {
		st := cat.Store()
		fmt.Printf("loaded %d rows, %d columns, %d shards of %d rows -> %s (%d bytes) in %v\n",
			st.Rows(), len(cat.Specs), st.NumShards(), st.ShardRows(),
			*out, n, time.Since(start).Round(time.Millisecond))
		return nil
	}
	fmt.Printf("loaded %d rows, %d columns -> %s (%d bytes) in %v\n",
		cat.Rows(), len(cat.Specs), *out, n, time.Since(start).Round(time.Millisecond))
	return nil
}

func openCatalog(path string) (*catalog.Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return catalog.Read(bufio.NewReader(f))
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	table := fs.String("table", "", "packed .bpag table")
	threads := fs.Int("threads", 1, "worker goroutines for aggregation")
	auto := fs.Bool("auto", true, "pick bit-parallel vs reconstruction per query selectivity")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none)")
	stats := fs.Bool("stats", false, "print per-query execution statistics after each result")
	httpAddr := fs.String("http", "", "serve /debug/pprof (profiles and execution traces) on this address, e.g. localhost:6060")
	fs.Parse(args)
	if *table == "" || fs.NArg() > 1 {
		return fmt.Errorf("query needs -table and at most one SQL argument (none starts a REPL)")
	}
	cat, err := openCatalog(*table)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		// Diagnostics only: pprof profiles and runtime/trace capture for
		// long sessions. Queries never block on this server.
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bpagg: -http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "bpagg: pprof at http://%s/debug/pprof/\n", *httpAddr)
	}
	opts := sqlmini.ExecOptions{Threads: *threads, Auto: *auto}
	if *stats {
		opts.Stats = bpagg.NewStatsCollector()
	}
	if fs.NArg() == 1 {
		// One-shot query: ctrl-C cancels the in-flight aggregation and
		// the process exits cleanly (status 130) once workers join.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runQuery(ctx, cat, fs.Arg(0), opts, *timeout)
	}
	// REPL: one query per line from stdin; errors don't end the session.
	// Each query gets its own signal-aware context, so ctrl-C cancels
	// the running query and falls back to the prompt; at an idle prompt
	// the default SIGINT disposition (terminate) applies.
	fmt.Printf("bpagg> connected to %s (%d rows); one query per line, ctrl-D to exit\n",
		*table, cat.Rows())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("bpagg> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err := runQuery(ctx, cat, line, opts, *timeout)
		stop()
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "bpagg: query canceled")
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "bpagg: query timed out after %v\n", *timeout)
		case err != nil:
			fmt.Fprintln(os.Stderr, "bpagg:", err)
		}
	}
}

func runQuery(ctx context.Context, cat *catalog.Catalog, sql string, opts sqlmini.ExecOptions, timeout time.Duration) error {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sqlmini.ExecuteContext(ctx, cat, q, opts)
	if opts.Stats != nil {
		// ExecuteContext joins every worker goroutine before returning —
		// including on ctrl-C and deadline expiry — so the collector is
		// quiescent here and -stats can report the work actually done
		// (partial on a canceled query) without racing a straggler's
		// Record or truncating mid-write. Snapshot-and-reset so each REPL
		// query reports its own numbers.
		defer func() {
			printStats(opts.Stats.Snapshot())
			opts.Stats.Reset()
		}()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && timeout > 0 {
			return fmt.Errorf("%w (budget %v)", err, timeout)
		}
		return err
	}
	printResult(res)
	fmt.Printf("(%d row(s) over %d tuples in %v)\n",
		len(res.Rows), cat.Rows(), time.Since(start).Round(time.Microsecond))
	return nil
}

// printStats renders one query's execution statistics. EXPLAIN ANALYZE
// shows the same counters per stage; this is the one-line-per-area
// summary for ordinary queries.
func printStats(es bpagg.ExecStats) {
	fmt.Printf("stats: scans=%d segments=%d pruned_all=%d pruned_none=%d (pruned %.1f%%) words_compared=%d scan_time=%v\n",
		es.Scans, es.SegmentsScanned, es.SegmentsPrunedAll, es.SegmentsPrunedNone,
		100*es.PruneRatio(), es.WordsCompared, es.ScanTime().Round(time.Microsecond))
	fmt.Printf("stats: aggregates=%d segments=%d words_touched=%d radix_rounds=%d reconstructed=%d busy=%v agg_time=%v\n",
		es.Aggregates, es.SegmentsAggregated, es.WordsTouched, es.RadixRounds,
		es.ReconstructedRows, es.WorkerBusy().Round(time.Microsecond), es.AggTime().Round(time.Microsecond))
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	table := fs.String("table", "", "packed .bpag table")
	fs.Parse(args)
	if *table == "" {
		return fmt.Errorf("info needs -table")
	}
	cat, err := openCatalog(*table)
	if err != nil {
		return err
	}
	st := cat.Store()
	fmt.Printf("rows: %d\n", st.Rows())
	fmt.Printf("shards: %d (up to %d rows each)\n", st.NumShards(), st.ShardRows())
	fmt.Printf("%-16s %-10s %-7s %6s %8s %10s\n",
		"column", "type", "layout", "bits", "nulls", "words")
	for _, sp := range cat.Specs {
		layout, bits, nulls, words := st.ColumnInfo(sp.Name)
		fmt.Printf("%-16s %-10s %-7s %6d %8d %10d\n",
			sp.Name, typeLabel(sp), layout, bits, nulls, words)
	}
	return nil
}

func typeLabel(sp catalog.Spec) string {
	switch sp.Kind {
	case catalog.Uint:
		return fmt.Sprintf("uint(%d)", sp.Bits)
	case catalog.Decimal:
		return fmt.Sprintf("decimal(%d)", sp.Scale)
	case catalog.Int:
		return fmt.Sprintf("int(%d..%d)", sp.MinInt, sp.MaxInt)
	case catalog.String:
		return fmt.Sprintf("string[%d]", len(sp.Keys))
	}
	return "?"
}

func printResult(res *sqlmini.Result) {
	widths := make([]int, len(res.Headers))
	for i, h := range res.Headers {
		widths[i] = len(h)
	}
	for _, row := range res.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	line(res.Headers)
	for _, row := range res.Rows {
		line(row)
	}
}
