package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/server"
	"bpagg/internal/sqlmini"
)

// execOptions is what every workload runs the engine with: one worker per
// query, because the host has two cores and the clients already fill them.
var execOptions = sqlmini.ExecOptions{Threads: 1}

// store is a flat or a sharded table behind the calls the harness makes
// on both.
type store struct {
	flat    *bpagg.Table
	sharded *bpagg.ShardedTable
}

func newStore(w *workload) store {
	if w.shardRows > 0 {
		st := bpagg.NewShardedTable(w.shardRows)
		for _, c := range w.cols {
			st.AddColumn(c.name, c.layout, c.bits)
		}
		return store{sharded: st}
	}
	t := bpagg.NewTable()
	for _, c := range w.cols {
		t.AddColumn(c.name, c.layout, c.bits)
	}
	return store{flat: t}
}

func (s store) appendColumnar(b map[string][]uint64) {
	if s.sharded != nil {
		s.sharded.AppendColumnar(b)
	} else {
		s.flat.AppendColumnar(b)
	}
}

func (s store) rows() int {
	if s.sharded != nil {
		return s.sharded.Rows()
	}
	return s.flat.Rows()
}

// openEpoch sends the first positional range query, which builds the
// range index and publishes its first epoch; appends maintain it from
// then on.
func (s store) openEpoch(col string) {
	if s.sharded != nil {
		s.sharded.Query().Range(0, s.rows()).Sum(col)
	} else {
		s.flat.Query().Range(0, s.rows()).Sum(col)
	}
}

func (s store) writeTo(buf *bytes.Buffer) error {
	var err error
	if s.sharded != nil {
		_, err = s.sharded.WriteTo(buf)
	} else {
		_, err = s.flat.WriteTo(buf)
	}
	return err
}

// readStore loads a serialized table the way bpaggd does at start-up.
func readStore(image []byte, sharded bool) (store, error) {
	if sharded {
		st, err := bpagg.ReadPartitioned(bytes.NewReader(image))
		return store{sharded: st}, err
	}
	t, err := bpagg.ReadTable(bytes.NewReader(image))
	return store{flat: t}, err
}

func (s store) memoryWords() int {
	if s.sharded != nil {
		return s.sharded.MemoryWords()
	}
	n := 0
	for _, name := range s.flat.Columns() {
		n += s.flat.Column(name).MemoryWords()
	}
	return n
}

func newCatalog(w *workload, s store) *catalog.Catalog {
	specs := make([]catalog.Spec, len(w.cols))
	for i, c := range w.cols {
		specs[i] = catalog.Spec{Name: c.name, Kind: catalog.Uint, Layout: c.layout, Bits: c.bits}
	}
	return &catalog.Catalog{Specs: specs, Table: s.flat, Sharded: s.sharded}
}

// backend is one table being served: what a swap replaces as a unit.
type backend struct {
	st  store
	cat *catalog.Catalog
	srv *server.Server
}

func newBackend(w *workload, s store) (*backend, error) {
	cat := newCatalog(w, s)
	srv, err := server.New(server.Config{Catalog: cat, Exec: execOptions, DefaultTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	return &backend{st: s, cat: cat, srv: srv}, nil
}

// instance is a running in-process bpaggd on loopback. The front handler
// forwards to the current backend so append_probe can swap tables between
// ops without touching the connection.
type instance struct {
	w     *workload
	cur   atomic.Pointer[backend]
	front *httptest.Server
}

func (in *instance) backend() *backend { return in.cur.Load() }
func (in *instance) url() string       { return in.front.URL + "/query" }

func (in *instance) close() {
	in.front.Close()
	in.cur.Store(nil)
}

// setupTimes is one set-up, inputs in memory to server ready.
type setupTimes struct {
	total   time.Duration
	batches []time.Duration // one AppendColumnar call each
	write   time.Duration
	read    time.Duration
	bytes   int
}

// setup runs the whole path a deployment takes: pack the batches (which
// also fills zone maps and segment caches), write the table out, read it
// back as bpaggd does, open the range index on the table that was read,
// bind the catalog and start the server.
func setup(w *workload, in *inputs) (*instance, setupTimes, error) {
	var tm setupTimes
	tm.batches = make([]time.Duration, 0, len(in.batches))
	start := time.Now()
	st := newStore(w)
	prev := start
	for _, b := range in.batches {
		st.appendColumnar(b)
		now := time.Now()
		tm.batches = append(tm.batches, now.Sub(prev))
		prev = now
	}

	var image bytes.Buffer
	t0 := time.Now()
	if err := st.writeTo(&image); err != nil {
		return nil, tm, fmt.Errorf("set-up: write: %w", err)
	}
	t1 := time.Now()
	st, err := readStore(image.Bytes(), w.shardRows > 0)
	if err != nil {
		return nil, tm, fmt.Errorf("set-up: read: %w", err)
	}
	tm.write, tm.read, tm.bytes = t1.Sub(t0), time.Since(t1), image.Len()
	st.openEpoch(colPrice.name)

	be, err := newBackend(w, st)
	if err != nil {
		return nil, tm, fmt.Errorf("set-up: %w", err)
	}
	inst := &instance{w: w}
	inst.cur.Store(be)
	inst.front = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		inst.backend().srv.Handler().ServeHTTP(rw, r)
	}))
	tm.total = time.Since(start)
	return inst, tm, nil
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
