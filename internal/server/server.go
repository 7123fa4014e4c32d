// Package server implements bpaggd's HTTP query-serving layer: a
// robustness envelope — admission control, per-query deadlines, overload
// shedding, graceful drain — wrapped around the sqlmini ...Context
// execution paths, with shared-scan batching amortizing concurrent
// same-class queries into one traversal (DESIGN.md §13).
//
// The design goal is predictable degradation: under overload the server
// sheds fast (429 + Retry-After) instead of queuing unboundedly; under
// slow queries deadlines fire and return 504 with partial ExecStats;
// under worker panics the request gets a 500 and the process lives on;
// under SIGTERM in-flight queries drain up to a deadline, then are
// hard-canceled. Every admitted request is answered exactly once.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/sqlmini"
)

// Config parameterizes a Server. The zero value of every field gets a
// sane default from withDefaults, so tests and callers set only what
// they care about.
type Config struct {
	// Catalog is the loaded table every query runs against. Required.
	Catalog *catalog.Catalog

	// Exec carries engine knobs (threads).
	// Exec.Stats is ignored: the server wires a per-request collector.
	Exec sqlmini.ExecOptions

	// MaxConcurrent bounds queries executing simultaneously.
	// Default: GOMAXPROCS.
	MaxConcurrent int

	// MaxQueue bounds queries admitted but waiting for an execution
	// slot. Beyond it the server sheds with 429. Default: 4×MaxConcurrent.
	MaxQueue int

	// DefaultTimeout is the per-query deadline when the request does not
	// override it. Default: 2s.
	DefaultTimeout time.Duration

	// MaxTimeout caps per-request ?timeout= overrides. Default: 30s.
	MaxTimeout time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight queries
	// before hard-canceling them. Default: 5s.
	DrainTimeout time.Duration

	// BatchWindow is how long a shared-scan batch leader waits for
	// same-class followers before executing. Default: 2ms.
	BatchWindow time.Duration

	// BatchMinInflight disables batching while fewer queries than this
	// are in the house (admitted, waiting or executing): under low
	// concurrency the window is pure added latency with nobody to share
	// with. Default: 4.
	BatchMinInflight int

	// MaxBatch caps a batch's size; a full batch fires before its window
	// expires. Default: 64.
	MaxBatch int

	// DisableBatching turns shared-scan batching off entirely
	// (benchmark A/B switch).
	DisableBatching bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMinInflight <= 0 {
		c.BatchMinInflight = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// Counters are the server's cumulative request-outcome counts, exposed
// on /statz and snapshotted by tests and benchmarks.
type Counters struct {
	Admitted uint64 `json:"admitted"`
	Answered uint64 `json:"answered"`
	Shed     uint64 `json:"shed"`
	Rejected uint64 `json:"rejected"` // draining refusals
	TimedOut uint64 `json:"timed_out"`
	Canceled uint64 `json:"canceled"`
	Panics   uint64 `json:"panics"`
	Batches  uint64 `json:"batches"` // shared-scan batches executed
	Batched  uint64 `json:"batched"` // queries answered from a shared batch
}

// BatchInfo annotates a response that was answered from a shared-scan
// batch: Size queries of class Key shared one traversal.
type BatchInfo struct {
	Size int    `json:"size"`
	Key  string `json:"key"`
}

// Response is the JSON body of every /query answer — success or failure.
// Stats is always present (zero for shed requests, partial for timed-out
// ones) so clients can meter engine work per request unconditionally.
type Response struct {
	Headers   []string        `json:"headers,omitempty"`
	Rows      [][]string      `json:"rows,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     bpagg.ExecStats `json:"stats"`
	Batch     *BatchInfo      `json:"batch,omitempty"`
	Code      int             `json:"code"`
	Error     string          `json:"error,omitempty"`
	Kind      string          `json:"kind,omitempty"`
}

// Server executes sqlmini queries over HTTP. Construct with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	totals *bpagg.StatsCollector

	// stopCtx is canceled exactly once, by hardCancel, when a drain
	// deadline expires: every in-flight request context is wired to it.
	stopCtx    context.Context
	hardCancel context.CancelFunc

	adm     admission
	batches *batcher

	admitted atomic.Uint64
	answered atomic.Uint64
	shed     atomic.Uint64
	rejected atomic.Uint64
	timedOut atomic.Uint64
	canceled atomic.Uint64
	panics   atomic.Uint64
	batchRun atomic.Uint64
	batchHit atomic.Uint64
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Catalog == nil {
		return nil, errors.New("server: Config.Catalog is required")
	}
	cfg.Exec.Stats = nil
	s := &Server{
		cfg:    cfg,
		totals: bpagg.NewStatsCollector(),
	}
	s.stopCtx, s.hardCancel = context.WithCancel(context.Background())
	s.adm.init(cfg.MaxConcurrent, cfg.MaxQueue)
	s.batches = newBatcher(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s, nil
}

// Handler returns the http.Handler serving /query, /healthz and /statz.
func (s *Server) Handler() http.Handler { return s.mux }

// Totals returns the cumulative engine ExecStats across all queries
// (shared batches charged once, however many queries they answered).
func (s *Server) Totals() bpagg.ExecStats { return s.totals.Snapshot() }

// CountersSnapshot returns the cumulative request-outcome counters.
func (s *Server) CountersSnapshot() Counters {
	return Counters{
		Admitted: s.admitted.Load(),
		Answered: s.answered.Load(),
		Shed:     s.shed.Load(),
		Rejected: s.rejected.Load(),
		TimedOut: s.timedOut.Load(),
		Canceled: s.canceled.Load(),
		Panics:   s.panics.Load(),
		Batches:  s.batchRun.Load(),
		Batched:  s.batchHit.Load(),
	}
}

// timeoutFor resolves the request's deadline: the server default, or a
// ?timeout= override clamped to [1ms, MaxTimeout]. A malformed override
// is a bad request.
func (s *Server) timeoutFor(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, &sqlmini.BadQueryError{Msg: fmt.Sprintf("server: bad timeout %q: %v", raw, err)}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// handleQuery is the request path: read SQL, admit, execute (shared or
// solo), answer. Every branch funnels through writeResponse exactly once.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeResponse(w, start, nil, nil, bpagg.ExecStats{},
			&sqlmini.BadQueryError{Msg: "server: POST a query"}, http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.writeResponse(w, start, nil, nil, bpagg.ExecStats{},
			fmt.Errorf("server: reading body: %w", err), 0)
		return
	}
	timeout, err := s.timeoutFor(r)
	if err != nil {
		s.writeResponse(w, start, nil, nil, bpagg.ExecStats{}, err, 0)
		return
	}
	q, err := sqlmini.Parse(string(body))
	if err != nil {
		s.writeResponse(w, start, nil, nil, bpagg.ExecStats{}, err, 0)
		return
	}

	// Admission: reject instantly while draining or when the wait queue
	// is full — never block the client on a queue that cannot drain
	// faster than it fills.
	if err := s.adm.enter(); err != nil {
		if errors.Is(err, errShed) {
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
		} else {
			s.rejected.Add(1)
		}
		s.writeResponse(w, start, nil, nil, bpagg.ExecStats{}, err, 0)
		return
	}
	defer s.adm.exit()
	s.admitted.Add(1)

	// The request context carries the deadline and is additionally
	// canceled by a drain hard-cancel — so a stuck client or a stuck
	// query cannot outlive the drain window.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stop := context.AfterFunc(s.stopCtx, cancel)
	defer stop()

	res, stats, batch, err := s.execute(ctx, q)
	s.countOutcome(ctx, err)
	s.writeResponse(w, start, res, batch, stats, err, 0)
}

// execute runs one admitted query: through a shared-scan batch when the
// class and concurrency gates open, solo through ExecuteContext
// otherwise.
func (s *Server) execute(ctx context.Context, q *sqlmini.Query) (*sqlmini.Result, bpagg.ExecStats, *BatchInfo, error) {
	if key, ok := s.batchEligible(q); ok {
		if out, joined := s.batches.run(ctx, key, q); joined {
			return out.res, out.stats, &BatchInfo{Size: out.size, Key: key}, out.err
		}
	}

	if err := s.adm.acquire(ctx); err != nil {
		return nil, bpagg.ExecStats{}, nil, err
	}
	defer s.adm.release()

	rec := bpagg.NewStatsCollector()
	o := s.cfg.Exec
	o.Stats = rec
	res, err := sqlmini.ExecuteContext(ctx, s.cfg.Catalog, q, o)
	stats := rec.Snapshot()
	s.totals.Record(stats)
	return res, stats, nil, err
}

// batchEligible applies the batching gate: feature on, query in a
// shareable class, and enough concurrent company to share with.
func (s *Server) batchEligible(q *sqlmini.Query) (string, bool) {
	if s.cfg.DisableBatching || s.adm.load() < s.cfg.BatchMinInflight {
		return "", false
	}
	// The class key binds the WHERE list, so it is worked out only once
	// there is company to share with.
	return sqlmini.BatchKey(s.cfg.Catalog, q)
}

// countOutcome classifies one finished request into the counters.
func (s *Server) countOutcome(ctx context.Context, err error) {
	switch {
	case err == nil:
		s.answered.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut.Add(1)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
	default:
		var pe *bpagg.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
		}
		s.answered.Add(1)
	}
}

// writeResponse renders the single JSON answer for a request. forceCode
// overrides status mapping when non-zero (method-not-allowed).
func (s *Server) writeResponse(w http.ResponseWriter, start time.Time, res *sqlmini.Result, batch *BatchInfo, stats bpagg.ExecStats, err error, forceCode int) {
	code, kind := s.statusFor(err)
	if forceCode != 0 {
		code = forceCode
	}
	resp := Response{
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Stats:     stats,
		Batch:     batch,
		Code:      code,
		Kind:      kind,
	}
	if err != nil {
		resp.Error = err.Error()
	} else if res != nil {
		resp.Headers = res.Headers
		resp.Rows = res.Rows
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp) // client gone is not a server error
}

// handleHealthz answers 200 while accepting queries and 503 once
// draining, so load balancers stop routing before shutdown completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.adm.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleStatz publishes cumulative engine totals and request counters.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Totals   bpagg.ExecStats `json:"totals"`
		Counters Counters        `json:"counters"`
		Draining bool            `json:"draining"`
	}{s.Totals(), s.CountersSnapshot(), s.adm.isDraining()})
}

// BeginDrain atomically stops admission; already-admitted queries keep
// running. Idempotent.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Drain gracefully shuts the query path down: stop admitting, wait up to
// DrainTimeout (or ctx, whichever is sooner) for in-flight queries, then
// hard-cancel the stragglers and wait for them to unwind. On return no
// request is in flight and none can be admitted; the reported error is
// non-nil iff the hard cancel was needed.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	if s.adm.wait(ctx) {
		return nil
	}
	s.hardCancel()
	// Canceled queries unwind promptly: every engine worker observes ctx
	// between segment blocks and is joined before its aggregate returns.
	s.adm.wait(context.Background())
	return fmt.Errorf("server: drain deadline exceeded; %w", context.DeadlineExceeded)
}
