package server

import (
	"context"
	"sync/atomic"
	"time"

	"bpagg"
	"bpagg/internal/sqlmini"
)

// Shared-scan batching: concurrent admitted queries whose WHERE clauses
// bind to the same predicate conjunction (sqlmini.BatchKey) coalesce
// into one ExecuteShared call — one statement over the union of their
// select lists, each aggregate named once, answers the whole batch, the
// cross-query analogue of the paper's multiple-aggregates-per-pass
// amortization.
//
// Protocol: the first query of a class becomes the leader. It opens the
// class, waits BatchWindow for followers (or until the batch is full),
// atomically closes the class, takes ONE execution slot, and runs the
// shared plan. Followers enqueue and wait on a buffered outcome channel,
// so a follower whose client vanishes costs nothing: the leader's send
// never blocks, the channel is garbage.
//
// Cancellation is collective: the shared execution context dies only
// when every member's request context has died (one impatient client
// must not starve the rest) or when a drain hard-cancel fires. A leader
// whose own context dies mid-protocol hands nothing off — it still runs
// the batch for its followers; its own reply just reports its context
// error if execution was cut short.

// outcome is one member's share of a finished batch.
type outcome struct {
	res   *sqlmini.Result
	err   error
	stats bpagg.ExecStats
	size  int
}

// member is one query waiting inside an open class.
type member struct {
	q   *sqlmini.Query
	ctx context.Context
	out chan outcome // buffered(1); exactly one send, ever
}

// class is one forming batch. Its lifecycle is open → closed; members
// only join while open, and only the leader closes it.
type class struct {
	key     string
	members []*member
	full    chan struct{} // closed when len(members) reaches MaxBatch
}

type batcher struct {
	s *Server

	mu      chan struct{} // 1-token mutex; see lock/unlock
	classes map[string]*class
}

func newBatcher(s *Server) *batcher {
	b := &batcher{
		s:       s,
		mu:      make(chan struct{}, 1),
		classes: map[string]*class{},
	}
	b.mu <- struct{}{}
	return b
}

func (b *batcher) lock()   { <-b.mu }
func (b *batcher) unlock() { b.mu <- struct{}{} }

// run coalesces q into its class's batch and blocks until the batch is
// executed or ctx dies. joined is always true: once here, the query is
// answered through the batch protocol (possibly as a batch of one).
func (b *batcher) run(ctx context.Context, key string, q *sqlmini.Query) (outcome, bool) {
	m := &member{q: q, ctx: ctx, out: make(chan outcome, 1)}

	b.lock()
	c := b.classes[key]
	if c != nil {
		// Follower: join the open class and wait for the leader.
		c.members = append(c.members, m)
		if len(c.members) >= b.s.cfg.MaxBatch {
			delete(b.classes, key) // close early: the class is full
			close(c.full)
		}
		b.unlock()
		select {
		case o := <-m.out:
			return o, true
		case <-ctx.Done():
			return outcome{err: ctx.Err()}, true
		}
	}

	// Leader: open the class, collect followers for one window.
	c = &class{key: key, members: []*member{m}, full: make(chan struct{})}
	b.classes[key] = c
	b.unlock()

	timer := time.NewTimer(b.s.cfg.BatchWindow)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.full:
	case <-ctx.Done():
		// Leader's client gave up during the window. Close the class and
		// execute anyway — followers may have joined and they are owed an
		// answer; the collective-cancel rule keeps the engine running for
		// them.
	}

	b.lock()
	if b.classes[key] == c {
		delete(b.classes, key)
	}
	b.unlock()
	// From here c.members is immutable: joining requires the class to be
	// in the map, and it no longer is.

	b.execute(c)
	o := <-m.out
	return o, true
}

// execute runs a closed class as one shared plan and distributes the
// per-member results.
func (b *batcher) execute(c *class) {
	n := len(c.members)

	// The shared context dies when ALL members' contexts have — tracked
	// with a countdown — or when a drain hard-cancel fires.
	execCtx, cancel := context.WithCancel(b.s.stopCtx)
	defer cancel()
	live := int64(n)
	stops := make([]func() bool, 0, n)
	for _, m := range c.members {
		stops = append(stops, context.AfterFunc(m.ctx, func() {
			if atomic.AddInt64(&live, -1) == 0 {
				cancel()
			}
		}))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	// One execution slot covers the whole batch — that is the amortization
	// the admission layer sees. Slot waiting is bounded by the collective
	// context, so a drained or fully-abandoned batch cannot camp on the
	// queue.
	if err := b.s.adm.acquire(execCtx); err != nil {
		b.fail(c, err)
		return
	}
	defer b.s.adm.release()

	rec := bpagg.NewStatsCollector()
	o := b.s.cfg.Exec
	o.Stats = rec
	qs := make([]*sqlmini.Query, n)
	for i, m := range c.members {
		qs[i] = m.q
	}
	results := sqlmini.ExecuteShared(execCtx, b.s.cfg.Catalog, qs, o)
	stats := rec.Snapshot()
	b.s.totals.Record(stats)
	b.s.batchRun.Add(1)
	b.s.batchHit.Add(uint64(n))

	for i, m := range c.members {
		m.out <- outcome{res: results[i].Res, err: results[i].Err, stats: stats, size: n}
	}
}

// fail answers every member with err (stats zero: nothing ran).
func (b *batcher) fail(c *class, err error) {
	for _, m := range c.members {
		m.out <- outcome{err: err, size: len(c.members)}
	}
}
