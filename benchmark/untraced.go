package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// prepared is a workload set up, verified and ready to be driven.
type prepared struct {
	w        *workload
	in       *inputs
	inst     *instance
	want     [][]byte // verified answer prefix of each w.stmts entry
	setups   []setupTimes
	heapBase uint64
	heapMB   float64
	image    []byte // append_probe: the serialized pre-load, source of swapped-in tables
}

// prepare generates the inputs, sets the instance up (repeatedly when
// repeat is set) and checks every statement's answer against the oracle.
func prepare(w *workload, seed uint64, repeat bool) (*prepared, error) {
	p := &prepared{w: w, in: genInputs(w.cols, w.rows, seed)}
	p.heapBase = heapAlloc()
	begin := time.Now()
	for rep := 0; rep == 0 || repeat && (rep < minSetupReps || rep < maxSetupReps && time.Since(begin) < setupRepsTime); rep++ {
		if p.inst != nil {
			p.inst.close()
			p.inst = nil
			runtime.GC()
		}
		inst, tm, err := setup(w, p.in)
		if err != nil {
			return nil, err
		}
		p.inst = inst
		p.setups = append(p.setups, tm)
	}
	p.heapMB = float64(heapAlloc()-p.heapBase) / (1 << 20)

	c := newConn(p.inst, nil)
	defer c.close()
	for _, sql := range w.stmts {
		want, err := oracleAnswer(p.inst.backend().cat, p.in.cols, p.in.rows, sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		if !c.post(sql, want) {
			return nil, fmt.Errorf("answer differs from the oracle\n  statement: %s\n  oracle:    %s\n  response:  %s", sql, want, c.buf.Bytes())
		}
		p.want = append(p.want, want)
	}
	if w.appends {
		var image bytes.Buffer
		if err := p.inst.backend().st.writeTo(&image); err != nil {
			return nil, err
		}
		p.image = image.Bytes()
	}
	return p, nil
}

// clients builds the workload's closed-loop clients.
func (p *prepared) clients(seed uint64, tr *tracer) ([]client, error) {
	if p.w.appends {
		return []client{newAppendClient(p.inst, p.in, p.image, seed, tr)}, nil
	}
	out := make([]client, p.w.conns)
	for i := range out {
		c := newConn(p.inst, tr)
		c.label = fmt.Sprintf("conn%d", i)
		out[i] = &queryClient{conn: c, stmts: p.w.stmts, want: p.want, round: p.w.round,
			pos: i * len(p.w.stmts) / p.w.conns}
	}
	return out, nil
}

// Blocks are short, so that a run holds enough of them for a decile and
// a burst of interference spoils few; the warm-up is a tenth of the run.
const (
	blocksPerRun  = 200
	warmupPerRun  = 10
	minSetupReps  = 3
	maxSetupReps  = 25
	setupRepsTime = 4 * time.Second
)

// measure warms the instance up and runs the measured loop. The second
// result is what the loop allocated, without the tables append_probe
// swapped in.
func measure(clients []client, seconds time.Duration) (loopResult, uint64) {
	allocated := func() uint64 {
		if ac, ok := clients[0].(*appendClient); ok {
			return totalAlloc() - ac.swapAlloc
		}
		return totalAlloc()
	}
	runLoop(clients, seconds/warmupPerRun, seconds/blocksPerRun)
	before := allocated()
	res := runLoop(clients, seconds, seconds/blocksPerRun)
	return res, allocated() - before
}

// loopStats are the quiet-decile figures of one loop.
type loopStats struct {
	stepMs     []float64 // per step kind
	cpuMsPerOp float64
	qps        float64
	p50Ms      float64 // whole-op latency, median over the whole loop
	tailMs     float64 // whole-op latency at tailPct, over the whole loop
	tailPct    float64
}

func (r loopResult) stats() (loopStats, error) {
	var ls loopStats
	var err error
	// A step's latency is its median inside each block, and then the
	// quiet decile of those: the typical step of a quiet stretch. With a
	// heavy op a block holds one or two, so this is the decile of the
	// steps themselves; with thousands of light ops to a block the median
	// keeps the figure off the edge between collector-idle and
	// collector-running ops, where a bare decile of the steps sits.
	ls.stepMs = make([]float64, len(r.kinds))
	for k, samples := range r.kinds {
		perBlock := map[int][]float64{}
		for _, s := range samples {
			perBlock[s.block] = append(perBlock[s.block], s.ms)
		}
		medians := make([]float64, 0, len(perBlock))
		for _, ms := range perBlock {
			medians = append(medians, median(ms))
		}
		if ls.stepMs[k], err = quiet(fmt.Sprintf("step %d latency over blocks", k), medians, true); err != nil {
			return ls, err
		}
	}
	cpu := make([]float64, len(r.blocks))
	rate := make([]float64, len(r.blocks))
	for i, b := range r.blocks {
		cpu[i] = float64(b.cpu) / 1e6 / float64(b.ops)
		rate[i] = float64(b.stmts) / b.elapsed.Seconds()
	}
	if ls.cpuMsPerOp, err = quiet("CPU per op over blocks", cpu, true); err != nil {
		return ls, err
	}
	if ls.qps, err = quiet("statements per second over blocks", rate, false); err != nil {
		return ls, err
	}
	if ls.tailPct, err = supportedTail(len(r.ops)); err != nil {
		return ls, err
	}
	ls.p50Ms = median(r.ops)
	ls.tailMs = quantile(r.ops, ls.tailPct)
	return ls, nil
}

// svcMs is the quiet service time of one op: the sum of its steps when
// an op is the whole list, their mean when an op is one statement of a
// cycle.
func (ls loopStats) svcMs(w *workload) float64 {
	sum := 0.0
	for _, ms := range ls.stepMs {
		sum += ms
	}
	if !w.round && !w.appends {
		return sum / float64(len(ls.stepMs))
	}
	return sum
}

// runUntraced is the run the end-to-end metrics come from.
func runUntraced(w *workload, seed uint64, seconds time.Duration) (result, error) {
	p, err := prepare(w, seed, true)
	if err != nil {
		return result{}, err
	}
	defer p.inst.close()
	clients, err := p.clients(seed, nil)
	if err != nil {
		return result{}, err
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	loop, alloc := measure(clients, seconds)
	ls, err := loop.stats()
	if err != nil {
		return result{}, err
	}

	// Set-up is the lowest of its repeats; the load rate is the quiet
	// decile of every batch of every repeat.
	setupS := p.setups[0].total.Seconds()
	var loadMs []float64
	for _, tm := range p.setups {
		setupS = min(setupS, tm.total.Seconds())
		for _, d := range tm.batches {
			loadMs = append(loadMs, float64(d)/1e6)
		}
	}
	heapMB := p.heapMB
	appendMs, err := quiet("load batches", loadMs, true)
	if err != nil {
		return result{}, err
	}
	if ac, ok := clients[0].(*appendClient); ok {
		appendMs = ls.stepMs[0]
		if heapMB, err = ac.heapAfterAppends(p.heapBase); err != nil {
			return result{}, err
		}
	}

	fmt.Printf("%-14s set-ups=%d blocks=%d ops=%d p50=%.4g ms tail=p%g %.4g ms\n", w.name, len(p.setups), len(loop.blocks), loop.attempted, ls.p50Ms, ls.tailPct, ls.tailMs)
	m := newMetricSet(endToEnd)
	m.set("setup_s", setupS)
	m.set("svc_ms", ls.svcMs(w))
	m.set("cpu_ms_per_op", ls.cpuMsPerOp)
	m.set("alloc_kb_per_op", float64(alloc)/1024/float64(loop.attempted))
	m.set("heap_mb", heapMB)
	m.set("qps", ls.qps)
	m.set("ingest_mrows_per_s", batchRows/appendMs/1e3)
	metrics, err := m.done()
	return result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed, Metrics: metrics}, err
}
