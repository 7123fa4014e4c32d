package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpagg/internal/catalog"
	"bpagg/internal/faultinject"
)

// testCatalog builds a small read-only sales table shared by all server
// tests (catalogs are immutable once loaded).
var testCatalog = sync.OnceValue(func() *catalog.Catalog { return loadTestCatalog(0) })

// shardedCatalog is testCatalog's data as a partitioned store.
var shardedCatalog = sync.OnceValue(func() *catalog.Catalog { return loadTestCatalog(500) })

func loadTestCatalog(shardRows int) *catalog.Catalog {
	specs, err := catalog.ParseSchema("price:uint(12):vbp, qty:uint(8):hbp, region:string")
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString("price,qty,region\n")
	regions := []string{"EU", "US", "APAC"}
	for i := 0; i < 4096; i++ {
		fmt.Fprintf(&b, "%d,%d,%s\n", i%4000, i%250, regions[i%3])
	}
	cat, err := catalog.LoadCSV(strings.NewReader(b.String()), specs)
	if err != nil {
		panic(err)
	}
	if shardRows > 0 {
		cat.Shard(shardRows)
	}
	return cat
}

// bigCatalog is large enough that every worker processes multiple
// 4096-segment blocks, so mid-scan cancellation checks actually fire.
var bigCatalog = sync.OnceValue(func() *catalog.Catalog {
	specs, err := catalog.ParseSchema("v:uint(8):vbp")
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString("v\n")
	for i := 0; i < 600_000; i++ {
		fmt.Fprintf(&b, "%d\n", i%251)
	}
	cat, err := catalog.LoadCSV(strings.NewReader(b.String()), specs)
	if err != nil {
		panic(err)
	}
	return cat
})

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = testCatalog()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, sql string) (int, Response, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/query", "text/plain", bytes.NewBufferString(sql))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestQueryOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts.URL, "SELECT COUNT(*), SUM(qty) WHERE region = 'EU'")
	if code != http.StatusOK || body.Kind != "ok" {
		t.Fatalf("code=%d kind=%q err=%q", code, body.Kind, body.Error)
	}
	if len(body.Rows) != 1 || len(body.Rows[0]) != 2 {
		t.Fatalf("rows = %v", body.Rows)
	}
	if body.Stats.Scans == 0 || body.Stats.Aggregates == 0 {
		t.Errorf("response stats empty: %+v", body.Stats)
	}
}

// TestQueryRownum exercises the rownum range route end to end through
// the HTTP surface: the answer is index-served (the response stats carry
// the prefix-index counters), and rownum misuse maps to 400 like any
// other bad query.
func TestQueryRownum(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts.URL, "SELECT COUNT(*), SUM(qty) WHERE rownum BETWEEN 256 AND 511")
	if code != http.StatusOK || body.Kind != "ok" {
		t.Fatalf("code=%d kind=%q err=%q", code, body.Kind, body.Error)
	}
	if len(body.Rows) != 1 || body.Rows[0][0] != "256" {
		t.Fatalf("rows = %v", body.Rows)
	}
	if body.Stats.SegmentsIndexServed == 0 {
		t.Errorf("rownum answer not index-served: %+v", body.Stats)
	}
	if code, body, _ := post(t, ts.URL, "SELECT COUNT(*) WHERE rownum > 5"); code != http.StatusBadRequest || body.Kind != "bad_query" {
		t.Errorf("rownum > 5: code=%d kind=%q, want 400 bad_query", code, body.Kind)
	}
}

func TestBadQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sql := range []string{
		"SELECT SUM(nope)",        // unknown column
		"SELECT SUM(region)",      // SUM over string
		"SELEKT COUNT(*)",         // parse failure
		"SELECT QUANTILE(qty, 2)", // quantile out of range
	} {
		code, body, _ := post(t, ts.URL, sql)
		if code != http.StatusBadRequest || body.Kind != "bad_query" {
			t.Errorf("%q: code=%d kind=%q, want 400 bad_query", sql, code, body.Kind)
		}
	}

	// Malformed timeout override is the client's fault too.
	resp, err := http.Post(ts.URL+"/query?timeout=banana", "text/plain",
		bytes.NewBufferString("SELECT COUNT(*)"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: code=%d, want 400", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: code=%d, want 405", resp.StatusCode)
	}
}

func TestTimeoutOverride(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.SiteWorkerStart, func(...any) error {
		time.Sleep(80 * time.Millisecond)
		return nil
	})
	s, ts := newTestServer(t, Config{Catalog: bigCatalog(), DisableBatching: true})

	resp, err := http.Post(ts.URL+"/query?timeout=20ms", "text/plain",
		bytes.NewBufferString("SELECT SUM(v)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || body.Kind != "timeout" {
		t.Fatalf("code=%d kind=%q err=%q, want 504 timeout", resp.StatusCode, body.Kind, body.Error)
	}
	if c := s.CountersSnapshot(); c.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", c.TimedOut)
	}
}

func TestOverflowMaps422(t *testing.T) {
	specs, err := catalog.ParseSchema("big:uint(64):vbp")
	if err != nil {
		t.Fatal(err)
	}
	csv := "big\n18446744073709551615\n18446744073709551615\n"
	cat, err := catalog.LoadCSV(strings.NewReader(csv), specs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Catalog: cat})
	code, body, _ := post(t, ts.URL, "SELECT SUM(big)")
	if code != http.StatusUnprocessableEntity || body.Kind != "overflow" {
		t.Fatalf("code=%d kind=%q err=%q, want 422 overflow", code, body.Kind, body.Error)
	}
}

func TestPanicMaps500AndServerSurvives(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.SiteWorkerStart, func(...any) error {
		panic("injected worker fault")
	})
	s, ts := newTestServer(t, Config{DisableBatching: true})
	code, body, _ := post(t, ts.URL, "SELECT SUM(qty)")
	if code != http.StatusInternalServerError || body.Kind != "panic" {
		t.Fatalf("code=%d kind=%q err=%q, want 500 panic", code, body.Kind, body.Error)
	}
	if c := s.CountersSnapshot(); c.Panics != 1 {
		t.Errorf("Panics = %d, want 1", c.Panics)
	}

	// The process survives: the same server answers the next query.
	faultinject.Reset()
	code, body, _ = post(t, ts.URL, "SELECT SUM(qty)")
	if code != http.StatusOK {
		t.Fatalf("after panic: code=%d kind=%q, want 200", code, body.Kind)
	}
}

func TestShedUnderOverload(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.SiteWorkerStart, func(...any) error {
		time.Sleep(40 * time.Millisecond)
		return nil
	})
	s, ts := newTestServer(t, Config{
		MaxConcurrent:   1,
		MaxQueue:        1,
		DisableBatching: true,
	})

	const n = 10
	codes := make([]int, n)
	retry := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "text/plain",
				bytes.NewBufferString("SELECT SUM(qty)"))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var body Response
			_ = json.NewDecoder(resp.Body).Decode(&body)
			codes[i] = resp.StatusCode
			retry[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retry[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d; want both nonzero (admission bounded at 2 of %d)", ok, shed, n)
	}
	if c := s.CountersSnapshot(); c.Shed != uint64(shed) {
		t.Errorf("Shed counter = %d, responses = %d", c.Shed, shed)
	}
}

func TestDrainRefusesAndHealthzFlips(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.BeginDrain()
	code, body, _ := post(t, ts.URL, "SELECT COUNT(*)")
	if code != http.StatusServiceUnavailable || body.Kind != "draining" {
		t.Fatalf("code=%d kind=%q, want 503 draining", code, body.Kind)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("empty drain: %v", err)
	}
}

func TestDrainHardCancelsStuckQuery(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.SiteWorkerRange, func(...any) error {
		time.Sleep(100 * time.Millisecond)
		return nil
	})
	cfg := Config{
		Catalog:         bigCatalog(),
		DefaultTimeout:  10 * time.Second, // the drain, not the deadline, must kill it
		DrainTimeout:    50 * time.Millisecond,
		DisableBatching: true,
	}
	// Two workers over ~9400 segments gives every worker multiple
	// 4096-segment blocks, so the post-hard-cancel ctx check actually
	// runs mid-scan.
	cfg.Exec.Threads = 2
	s, ts := newTestServer(t, cfg)

	got := make(chan Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "text/plain",
			bytes.NewBufferString("SELECT SUM(v)"))
		if err != nil {
			got <- Response{}
			return
		}
		defer resp.Body.Close()
		var body Response
		_ = json.NewDecoder(resp.Body).Decode(&body)
		got <- body
	}()

	time.Sleep(20 * time.Millisecond) // let the query reach the engine
	if err := s.Drain(context.Background()); err == nil {
		t.Error("drain over a stuck query reported clean; want hard-cancel error")
	}

	select {
	case body := <-got:
		if body.Kind != "draining" {
			t.Errorf("stuck query answered kind=%q err=%q, want draining", body.Kind, body.Error)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hard-canceled query never answered")
	}
}

func TestBatchingAmortizes(t *testing.T) {
	t.Run("flat", func(t *testing.T) { batchingAmortizes(t, testCatalog()) })
	t.Run("sharded", func(t *testing.T) { batchingAmortizes(t, shardedCatalog()) })
}

func batchingAmortizes(t *testing.T, cat *catalog.Catalog) {
	const n = 8
	workload := func(t *testing.T, cfg Config) (*Server, []Response) {
		cfg.Catalog = cat
		s, ts := newTestServer(t, cfg)
		out := make([]Response, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				code, body, _ := post(t, ts.URL, "SELECT SUM(qty), COUNT(*) WHERE region = 'EU'")
				if code != http.StatusOK {
					t.Errorf("client %d: code=%d err=%q", i, code, body.Error)
				}
				out[i] = body
			}(i)
		}
		close(start)
		wg.Wait()
		return s, out
	}

	sBatched, responses := workload(t, Config{
		MaxConcurrent:    4,
		MaxQueue:         2 * n,
		BatchMinInflight: 1,
		BatchWindow:      150 * time.Millisecond,
	})
	sSolo, _ := workload(t, Config{
		MaxConcurrent:   4,
		MaxQueue:        2 * n,
		DisableBatching: true,
	})

	maxBatch := 0
	for _, r := range responses {
		if r.Batch != nil && r.Batch.Size > maxBatch {
			maxBatch = r.Batch.Size
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no multi-query batch formed (max size %d)", maxBatch)
	}
	batched, solo := sBatched.Totals(), sSolo.Totals()
	if batched.WordsTouched >= solo.WordsTouched {
		t.Errorf("batched WordsTouched = %d, unbatched = %d; batching should amortize",
			batched.WordsTouched, solo.WordsTouched)
	}
	if batched.Scans >= solo.Scans {
		t.Errorf("batched Scans = %d, unbatched = %d", batched.Scans, solo.Scans)
	}
	if c := sBatched.CountersSnapshot(); c.Batched < 2 || c.Batches == 0 {
		t.Errorf("counters = %+v; want Batched>=2, Batches>=1", c)
	}
}

func TestBatchingDisabledUnderLowConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Config{BatchMinInflight: 4})
	code, body, _ := post(t, ts.URL, "SELECT SUM(qty) WHERE region = 'EU'")
	if code != http.StatusOK {
		t.Fatalf("code=%d err=%q", code, body.Error)
	}
	if body.Batch != nil {
		t.Errorf("lone query batched: %+v; batching must stay off below BatchMinInflight", body.Batch)
	}
	if c := s.CountersSnapshot(); c.Batches != 0 {
		t.Errorf("Batches = %d, want 0", c.Batches)
	}
}

func TestStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "SELECT SUM(qty)")
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statz struct {
		Totals   map[string]any `json:"totals"`
		Counters Counters       `json:"counters"`
		Draining bool           `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if statz.Counters.Admitted != 1 || statz.Counters.Answered != 1 {
		t.Errorf("counters = %+v", statz.Counters)
	}
	if statz.Draining {
		t.Error("fresh server reports draining")
	}
}
