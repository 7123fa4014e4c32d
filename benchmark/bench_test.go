package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"bpagg"
)

// A 40 % slow epoch covering six tenths of the run moves the median by
// the whole 40 % and the quiet decile by almost nothing.
func TestQuietDecileIgnoresSlowEpoch(t *testing.T) {
	rng := splitmix64(7)
	series := func(slow bool) []float64 {
		v := make([]float64, 1000)
		for i := range v {
			v[i] = 100 + float64(rng.next()%200)/100 // 100..102
			if slow && i >= 200 && i < 800 {
				v[i] *= 1.4
			}
		}
		return v
	}
	calm, _ := quiet("calm", series(false), true)
	noisy, err := quiet("noisy", series(true), true)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(noisy/calm - 1); d > 0.01 {
		t.Errorf("quiet decile moved %.1f %% under a slow epoch (%.2f -> %.2f)", d*100, calm, noisy)
	}
	if m := median(series(true)) / median(series(false)); m < 1.3 {
		t.Errorf("the median should have moved with the epoch, ratio %.2f", m)
	}
	// A rate is read at the mirror percentile.
	hi, _ := quiet("rate", series(true), false)
	if hi < 1.4*100 {
		t.Errorf("quiet decile of a rate = %.2f, want the high side", hi)
	}
}

func TestPercentileAndSampleCountRule(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {10, 10}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if _, err := quiet("short", s[:99], true); err == nil {
		t.Error("quiet accepted 99 samples: the decile would have fewer than ten below it")
	}
	if v, err := quiet("enough", s, true); err != nil || v != 10 {
		t.Errorf("quiet(1..100) = %g, %v, want 10", v, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}} {
		if got, err := supportedTail(c.n); err != nil || got != c.want {
			t.Errorf("supportedTail(%d) = %g, %v, want %g", c.n, got, err, c.want)
		}
	}
	if _, err := supportedTail(19); err == nil {
		t.Error("supportedTail(19) found a percentile with ten samples beyond it")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	defs := []colDef{colPrice, colQty, {name: "ts", bits: 24, layout: bpagg.VBP, step: serveTSStep}}
	a, b, c := genInputs(defs, 3*batchRows, 42), genInputs(defs, 3*batchRows, 42), genInputs(defs, 3*batchRows, 43)
	for _, d := range defs {
		if columnHash(a.cols[d.name]) != columnHash(b.cols[d.name]) {
			t.Errorf("%s: same seed, different column", d.name)
		}
		if columnHash(a.cols[d.name]) == columnHash(c.cols[d.name]) {
			t.Errorf("%s: other seed, same column", d.name)
		}
		for _, v := range a.cols[d.name] {
			if v>>uint(d.bits) != 0 {
				t.Fatalf("%s: value %d does not fit %d bits", d.name, v, d.bits)
			}
		}
	}
	if !sort.SliceIsSorted(a.cols["ts"], func(i, j int) bool { return a.cols["ts"][i] < a.cols["ts"][j] }) {
		t.Error("ts is not ascending")
	}
	if len(a.batches) != 3 || len(a.batches[2]["price"]) != batchRows {
		t.Errorf("batches: got %d, want 3 of %d rows", len(a.batches), batchRows)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	// Three repeats, the second in a slow stretch that doubles every
	// rung: the paired difference still reads the quiet 15 and 20.
	c := climbed{
		reps: map[string][]float64{"scan": {4, 8, 4}, "core.agg": {6, 12, 6}, "parallel.t1": {25, 50, 25}, "bpagg": {45, 90, 45}},
		ns:   map[string]float64{"scan": 4, "core.agg": 6},
	}
	if got := c.coreRungs(); !reflect.DeepEqual(got, []string{"scan", "core.agg"}) {
		t.Errorf("coreRungs = %v, want scan + core.agg for a plan that does not fuse", got)
	}
	if par, facade := c.over([]string{"parallel.t1"}, c.coreRungs()), c.over([]string{"bpagg"}, []string{"parallel.t1"}); par != 15 || facade != 20 {
		t.Errorf("self times = %g and %g, want 15 and 20", par, facade)
	}
	c.ns["core.fused"] = 9
	if got := c.coreRungs(); !reflect.DeepEqual(got, []string{"core.fused"}) {
		t.Errorf("coreRungs = %v, want core.fused for a plan that fuses", got)
	}
	// An op statement that starts at the bpagg rung, as on a sharded
	// table, leaves the rungs below to the probe.
	op := climbed{pl: &plan{class: classFilter}, ns: map[string]float64{"bpagg": 3}}
	probe := climbed{pl: &plan{class: classFilter, probe: true}, ns: map[string]float64{"scan": 1, "bpagg": 4}}
	if got := pick([]climbed{op, probe}, "bpagg", ofClass(classFilter)); len(got) != 1 || got[0].pl.probe {
		t.Error("pick must prefer the op's own statements to probes")
	}
	if got := pick([]climbed{op, probe}, "scan", ofClass(classFilter)); len(got) != 1 || !got[0].pl.probe {
		t.Error("pick must fall back to probes when no op statement climbed the rung")
	}
	// A self time a little below zero is noise; far below, the rungs do
	// not nest and the run must fail.
	if checkNested("x", 5, 100) != nil || checkNested("x", -5, 100) != nil {
		t.Error("checkNested refused a self time within the ladder's noise")
	}
	if checkNested("x", -50, 100) == nil {
		t.Error("checkNested accepted a rung half the size of the rungs below it")
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program reports. The file must be those
// tables, byte for byte.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		spec.EndToEnd = append(spec.EndToEnd, jsonMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, jsonMetric{d.name, d.unit, d.better, nil})
	}
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("../BENCHMARK.json is not what the program's tables say; it should read:\n%s", want)
	}

	// A run's JSON carries exactly the table's names, and the result
	// object exactly the four keys of the contract.
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		m := newMetricSet(defs)
		for _, d := range defs[1:] {
			m.set(d.name, 1)
		}
		if _, err := m.done(); err == nil {
			t.Errorf("done() missed that %s was never set", defs[0].name)
		}
		m.set(defs[0].name, 1)
		got, err := m.done()
		if err != nil || len(got) != len(defs) {
			t.Errorf("done() = %d metrics, %v, want %d", len(got), err, len(defs))
		}
		line, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: got})
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
		}
	}
}

// tinyWorkload is a whole workload small enough for a unit test: set-up,
// the oracle check of every statement class, and a short closed loop.
func tinyWorkload(shardRows int) *workload {
	return &workload{
		name: "tiny", rows: 2 * batchRows, shardRows: shardRows, conns: 2,
		cols: []colDef{{name: "ts", bits: 24, layout: bpagg.VBP, step: 4}, colPrice, colQty, colDisc},
		stmts: []string{
			"SELECT SUM(price), AVG(qty), COUNT(*) WHERE disc < 8",
			"SELECT MIN(price), MAX(qty) WHERE ts BETWEEN 1000 AND 20000 AND qty < 40",
			"SELECT COUNT(*), SUM(price), MAX(qty) WHERE qty < 32 GROUP BY disc",
			"SELECT COUNT(*), SUM(qty) WHERE ts < 2000 GROUP BY ts",
			"SELECT MEDIAN(price), QUANTILE(qty, 0.9) WHERE disc >= 4",
			"SELECT SUM(price), MAX(price) WHERE rownum BETWEEN 100 AND 5000",
		},
	}
}

func TestAnswersMatchOracleAndLoopCounts(t *testing.T) {
	for _, shardRows := range []int{0, batchRows} {
		w := tinyWorkload(shardRows)
		p, err := prepare(w, 5, false)
		if err != nil {
			t.Fatalf("shardRows %d: %v", shardRows, err)
		}
		clients, err := p.clients(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each client walks the cycle: every statement kind is sampled.
		res := runLoop(clients, 300*time.Millisecond, 10*time.Millisecond)
		for _, c := range clients {
			c.close()
		}
		p.inst.close()
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("loop: %d of %d ops failed", res.failed, res.attempted)
		}
		var steps, inBlocks int64
		for k, lat := range res.kinds {
			if len(lat) == 0 {
				t.Errorf("statement %d was never sampled", k)
			}
			steps += int64(len(lat))
		}
		for _, b := range res.blocks {
			if b.ops < 1 || b.elapsed < 10*time.Millisecond {
				t.Errorf("block %+v is shorter than asked or empty", b)
			}
			inBlocks += b.ops
		}
		if steps != res.attempted || inBlocks > res.attempted || len(res.blocks) == 0 {
			t.Errorf("steps %d, ops in %d blocks %d, attempted %d", steps, len(res.blocks), inBlocks, res.attempted)
		}
	}
}

// A wrong answer must be caught: corrupt one verified answer and the op
// counts as failed.
func TestWrongAnswerFailsTheOp(t *testing.T) {
	p, err := prepare(tinyWorkload(0), 5, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.inst.close()
	p.want[0] = append([]byte(nil), p.want[0]...)
	p.want[0][len(p.want[0])/2] ^= 1
	clients, _ := p.clients(5, nil)
	res := runLoop(clients[:1], 20*time.Millisecond, 5*time.Millisecond)
	clients[0].close()
	clients[1].close()
	if res.failed == 0 {
		t.Error("an op with a corrupted expected answer was counted as correct")
	}
}

// fakeClient cycles through four kinds without a server.
type fakeClient struct {
	pos    int
	traced []bool // per op: was a tracer installed
	tr     *tracer
}

func (f *fakeClient) next() opResult {
	f.traced = append(f.traced, f.tr != nil)
	r := opResult{ok: true, stmts: 1, steps: []step{{f.pos, time.Microsecond}}}
	f.pos = (f.pos + 1) % 4
	return r
}
func (f *fakeClient) kinds() int           { return 4 }
func (f *fakeClient) setTracer(tr *tracer) { f.tr = tr }
func (f *fakeClient) close()               {}

// With a cycle of even length, tracing every other op would trace the
// same statements every time; alternating by whole cycles sees every
// statement both ways.
func TestAlternatingCoversEveryKindBothWays(t *testing.T) {
	a := &alternating{client: &fakeClient{}, tr: &tracer{}, period: 4}
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		for _, s := range a.next().steps {
			seen[s.kind] = true
		}
	}
	if len(seen) != a.kinds() {
		t.Errorf("kinds seen %v, want all %d", seen, a.kinds())
	}
}
