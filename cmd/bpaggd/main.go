// Command bpaggd serves sqlmini aggregate queries over HTTP from one
// packed .bpag table, wrapped in the robustness envelope of
// internal/server (DESIGN.md §13): bounded admission with fast 429
// shedding, per-query deadlines, graceful SIGTERM drain, worker-panic
// containment, and shared-scan batching that answers concurrent
// same-predicate queries from a single traversal.
//
//	bpagg load -csv sales.csv -schema 'price:decimal(2,105000),qty:uint(6):hbp,region:string' -out sales.bpag
//	bpaggd -table sales.bpag -addr :8080
//	curl -s -X POST 'localhost:8080/query?timeout=500ms' -d 'SELECT SUM(price) WHERE region = "EU"'
//
// Endpoints:
//
//	POST /query    SQL text in the body; ?timeout= overrides the default
//	               deadline (clamped to -max-timeout). JSON answer with
//	               headers/rows, ExecStats, and batch info when the query
//	               was answered from a shared scan.
//	GET  /healthz  200 while accepting queries, 503 once draining.
//	GET  /statz    cumulative engine totals + request counters.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"bpagg/internal/catalog"
	"bpagg/internal/server"
	"bpagg/internal/sqlmini"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bpaggd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bpaggd", flag.ExitOnError)
	table := fs.String("table", "", "packed .bpag table to serve (required)")
	addr := fs.String("addr", ":8080", "listen address")
	threads := fs.Int("threads", 0, "worker goroutines per query (0 = engine default)")
	auto := fs.Bool("auto", true, "pick bit-parallel vs reconstruction per query selectivity")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-query deadline")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on per-request ?timeout= overrides")
	concurrency := fs.Int("concurrency", 0, "max queries executing at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max queries waiting for a slot before shedding (0 = 4x concurrency)")
	drain := fs.Duration("drain", 5*time.Second, "grace for in-flight queries on shutdown before hard cancel")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "how long a shared-scan batch collects same-class queries")
	batchMin := fs.Int("batch-min-inflight", 4, "min in-house queries before batching engages")
	noBatch := fs.Bool("no-batch", false, "disable shared-scan batching")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address, e.g. localhost:6060")
	fs.Parse(args)
	if *table == "" {
		return errors.New("-table is required")
	}

	f, err := os.Open(*table)
	if err != nil {
		return err
	}
	cat, err := catalog.Read(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Catalog:          cat,
		Exec:             sqlmini.ExecOptions{Threads: *threads, Auto: *auto},
		MaxConcurrent:    *concurrency,
		MaxQueue:         *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DrainTimeout:     *drain,
		BatchWindow:      *batchWindow,
		BatchMinInflight: *batchMin,
		DisableBatching:  *noBatch,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bpaggd: -pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "bpaggd: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "bpaggd: serving %s (%d rows) on http://%s/query\n",
		*table, cat.Rows(), ln.Addr())

	// First SIGTERM/SIGINT: drain gracefully — stop admitting (healthz
	// flips to 503 so balancers re-route), let in-flight queries finish
	// up to -drain, then hard-cancel stragglers. A second signal skips
	// the grace and exits once the cancel propagates.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "bpaggd: %v: draining (grace %v; signal again to cancel now)\n", sig, *drain)
	}
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "bpaggd: %v: canceling in-flight queries\n", sig)
		srv.BeginDrain()
		// Zero the remaining grace by draining with an expired context:
		// Drain is idempotent and hard-cancels immediately.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Drain(ctx)
	}()

	drainErr := srv.Drain(context.Background())
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "bpaggd:", drainErr)
	}
	fmt.Fprintln(os.Stderr, "bpaggd: drained, bye")
	return nil
}
