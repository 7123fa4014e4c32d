package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one persistent connection to the instance.
type conn struct {
	hc  *http.Client
	url string
	buf bytes.Buffer

	// Tracing: nil tr on untraced runs. label and seq name the op the
	// connection is in, the trace its spans belong to.
	tr    *tracer
	label string
	seq   int
}

func newConn(inst *instance, tr *tracer) conn {
	return conn{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url: inst.url(),
		tr:  tr,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) setTracer(tr *tracer) { c.tr = tr }

// post sends one statement and reports whether the answer is the
// verified one, byte for byte.
func (c *conn) post(sql string, want []byte) bool {
	start := time.Now()
	resp, err := c.hc.Post(c.url, "text/plain", strings.NewReader(sql))
	if err != nil {
		return false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.tr.record(c.label, c.seq, "server.rtt", "client.op", start, time.Now(), 0, nil)
	return err == nil && resp.StatusCode == http.StatusOK && bytes.HasPrefix(c.buf.Bytes(), want)
}

// step is one timed part of an op: a statement's round trip, or
// append_probe's AppendColumnar call. kind indexes the workload's step
// list, so latencies of like steps are estimated together.
type step struct {
	kind int
	lat  time.Duration
}

// opResult is one op as its client saw it. steps is reused by the next
// call.
type opResult struct {
	lat   time.Duration
	steps []step
	stmts int
	ok    bool
}

// client is one closed-loop user: next sends the next op and returns
// when it has been answered.
type client interface {
	next() opResult
	kinds() int
	setTracer(*tracer)
	close()
}

// alternating traces every other stretch of period ops of a client and
// files the traced ops' steps under a second set of kinds, so one loop
// measures the same ops with and without tracing in the same state of
// the host. period is 1, or the cycle length of a client that walks a
// statement cycle, so that every statement is seen both ways.
type alternating struct {
	client
	tr     *tracer
	period int
	n      int
}

func (a *alternating) kinds() int { return 2 * a.client.kinds() }

func (a *alternating) next() opResult {
	traced := a.n/a.period%2 == 1
	a.n++
	if !traced {
		a.setTracer(nil)
		return a.client.next()
	}
	a.setTracer(a.tr)
	r := a.client.next()
	for i := range r.steps {
		r.steps[i].kind += a.client.kinds()
	}
	return r
}

// queryClient sends verified statements: the whole list as one op
// (round) or one statement per op, walking the list as a cycle.
type queryClient struct {
	conn
	stmts []string
	want  [][]byte
	round bool
	pos   int
	steps []step
}

func (c *queryClient) kinds() int { return len(c.stmts) }

func (c *queryClient) next() opResult {
	r := opResult{ok: true, steps: c.steps[:0]}
	n := 1
	if c.round {
		n = len(c.stmts)
	}
	start := time.Now()
	at := start
	for i := 0; i < n; i++ {
		r.ok = c.post(c.stmts[c.pos], c.want[c.pos]) && r.ok
		now := time.Now()
		r.steps = append(r.steps, step{c.pos, now.Sub(at)})
		at = now
		c.pos = (c.pos + 1) % len(c.stmts)
	}
	r.lat, r.stmts = at.Sub(start), n
	c.tr.record(c.label, c.seq, "client.op", "", start, at, 0, nil)
	c.seq++
	c.steps = r.steps
	return r
}

// appendClient is append_probe's writer-reader. The appended batches
// repeat the pre-load's price, qty and disc batches in order under a ts
// that keeps ascending, so the trailing window is always the last
// windowBatches entries of a ring of per-batch sums and maxima.
type appendClient struct {
	conn
	inst  *instance
	image []byte // serialized pre-load, the source of swapped-in tables

	pool     []map[string][]uint64
	priceSum []uint64
	priceMax []uint64
	ts       []uint64
	tsRng    splitmix64

	batches int // batches in the live table

	// swapAlloc is TotalAlloc spent building swapped-in tables, which
	// measure takes out of the per-op allocation.
	swapAlloc uint64
	steps     []step
}

const windowBatches = appendWindow / batchRows

func newAppendClient(inst *instance, in *inputs, image []byte, seed uint64, tr *tracer) *appendClient {
	c := &appendClient{
		conn: newConn(inst, tr), inst: inst, image: image,
		ts: make([]uint64, batchRows), tsRng: splitmix64(seed ^ 0xa99e4d),
		batches: inst.backend().st.rows() / batchRows,
	}
	c.label = "conn0"
	for _, b := range in.batches {
		m := map[string][]uint64{"ts": c.ts}
		for name, v := range b {
			if name != "ts" {
				m[name] = v
			}
		}
		var sum, mx uint64
		for _, p := range b[colPrice.name] {
			sum += p
			mx = max(mx, p)
		}
		c.pool = append(c.pool, m)
		c.priceSum = append(c.priceSum, sum)
		c.priceMax = append(c.priceMax, mx)
	}
	return c
}

// swap replaces the live table with a fresh pre-loaded one.
func (c *appendClient) swap() error {
	before := totalAlloc()
	st, err := readStore(c.image, true)
	if err != nil {
		return err
	}
	st.openEpoch(colPrice.name)
	be, err := newBackend(c.inst.w, st)
	if err != nil {
		return err
	}
	c.inst.cur.Store(be)
	c.batches = len(c.pool)
	c.swapAlloc += totalAlloc() - before
	return nil
}

func (c *appendClient) next() opResult {
	// Outside the timed span: the batch, the probes and their answers.
	if c.batches*batchRows >= appendSwapAt {
		if err := c.swap(); err != nil {
			return opResult{stmts: 4}
		}
	}
	b := c.batches
	first := b * batchRows
	for i := range c.ts {
		c.ts[i] = uint64(first+i)*appendTSStep + c.tsRng.next()%appendTSStep
	}
	var winSum, winMax uint64
	for k := 0; k < windowBatches; k++ {
		j := (b - k) % len(c.pool)
		winSum += c.priceSum[j]
		winMax = max(winMax, c.priceMax[j])
	}
	last := c.priceSum[b%len(c.pool)]
	sqls := probeSQL(first + batchRows)
	want := [4][]byte{
		oneCell("sum(price)", winSum), oneCell("max(price)", winMax),
		oneCell("count(*)", batchRows), oneCell("sum(price)", last),
	}
	st := c.inst.backend().st

	r := opResult{ok: true, stmts: len(sqls), steps: c.steps[:0]}
	start := time.Now()
	st.appendColumnar(c.pool[b%len(c.pool)])
	at := time.Now()
	c.tr.record(c.label, c.seq, "bpagg.append", "client.op", start, at, batchRows, nil)
	r.steps = append(r.steps, step{0, at.Sub(start)})
	for i, s := range sqls {
		r.ok = c.post(s, want[i]) && r.ok
		now := time.Now()
		r.steps = append(r.steps, step{1 + i, now.Sub(at)})
		at = now
	}
	r.lat = at.Sub(start)
	c.tr.record(c.label, c.seq, "client.op", "", start, at, batchRows, nil)
	c.seq++
	c.batches++
	c.steps = r.steps
	return r
}

// kinds: the append, then the four probes.
func (c *appendClient) kinds() int { return 1 + len(probeSQL(appendPreload)) }

// heapAfterAppends is append_probe's heap_mb: the live heap, over base,
// of a fresh pre-loaded table after as many appended rows again, each
// followed by its probes. A fixed history, so the figure does not depend
// on how many ops the host got through.
func (c *appendClient) heapAfterAppends(base uint64) (float64, error) {
	if err := c.swap(); err != nil {
		return 0, err
	}
	for i := 0; i < len(c.pool); i++ {
		if r := c.next(); !r.ok {
			return 0, fmt.Errorf("append_probe: wrong answer while growing the table for heap_mb")
		}
	}
	return float64(heapAlloc()-base) / (1 << 20), nil
}

func oneCell(header string, v uint64) []byte {
	return answerPrefix([]string{header}, [][]string{{strconv.FormatUint(v, 10)}})
}

// block is a stretch of the run between two cuts. A cut is taken by the
// client whose op first ends blockLen or more after the block began, so
// every block holds at least one op and, with one client, starts and
// ends between ops.
type block struct {
	elapsed time.Duration
	cpu     time.Duration
	ops     int64
	stmts   int64
}

// stepSample is one step's latency and the block it ended in.
type stepSample struct {
	block int
	ms    float64
}

type loopResult struct {
	kinds     [][]stepSample // per step kind, in no order
	ops       []float64      // whole-op latencies in ms
	blocks    []block
	attempted int64
	failed    int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// claimed parks nextAt while a client is cutting a block.
const claimed = math.MaxInt64

// runLoop drives the clients, one goroutine each, for length, cutting
// blocks of at least blockLen.
func runLoop(clients []client, length, blockLen time.Duration) loopResult {
	type mark struct {
		at, cpu    time.Duration
		ops, stmts int64
	}
	var (
		nextAt             atomic.Int64 // when the open block may be cut; orders access to begin and res
		blockNo            atomic.Int64 // the open block's index
		ops, stmts, failed atomic.Int64
		wg                 sync.WaitGroup
	)
	res := loopResult{kinds: make([][]stepSample, clients[0].kinds())}
	perClient := make([]loopResult, len(clients))
	start := time.Now()
	take := func() mark { return mark{time.Since(start), processCPU(), ops.Load(), stmts.Load()} }
	begin := take()
	nextAt.Store(int64(blockLen))
	for i, c := range clients {
		wg.Add(1)
		go func(pc *loopResult, c client) {
			defer wg.Done()
			pc.kinds = make([][]stepSample, c.kinds())
			for {
				r := c.next()
				end := time.Since(start)
				blk := int(blockNo.Load())
				for _, s := range r.steps {
					pc.kinds[s.kind] = append(pc.kinds[s.kind], stepSample{blk, float64(s.lat) / 1e6})
				}
				pc.ops = append(pc.ops, float64(r.lat)/1e6)
				ops.Add(1)
				stmts.Add(int64(r.stmts))
				if !r.ok {
					failed.Add(1)
				}
				if due := nextAt.Load(); int64(end) >= due && nextAt.CompareAndSwap(due, claimed) {
					z := take()
					res.blocks = append(res.blocks, block{z.at - begin.at, z.cpu - begin.cpu, z.ops - begin.ops, z.stmts - begin.stmts})
					begin = take()
					blockNo.Add(1)
					nextAt.Store(int64(begin.at + blockLen))
				}
				if end >= length {
					return
				}
			}
		}(&perClient[i], c)
	}
	wg.Wait()
	for _, pc := range perClient {
		for k := range pc.kinds {
			res.kinds[k] = append(res.kinds[k], pc.kinds[k]...)
		}
		res.ops = append(res.ops, pc.ops...)
	}
	res.attempted, res.failed = ops.Load(), failed.Load()
	return res
}

// sink keeps results alive so the compiler cannot drop the work that
// produced them.
var sink uint64
