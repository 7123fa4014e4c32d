package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bpagg"
	"bpagg/internal/hbp"
	"bpagg/internal/sqlmini"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// span is one timed call into a layer. Spans of one trace share stmt and
// rep; parent names the span of the rung above.
type span struct {
	stmt     string
	rep      int
	name     string
	parent   string
	start    time.Duration // since the tracer started
	end      time.Duration
	rows     int
	counters map[string]uint64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) record(stmt string, rep int, name, parent string, start, end time.Time, rows int, counters map[string]uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{stmt, rep, name, parent, start.Sub(t.t0), end.Sub(t.t0), rows, counters})
	t.mu.Unlock()
}

// write stores the spans as JSON lines, one span each.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		err = enc.Encode(struct {
			Trace    string            `json:"trace"`
			Name     string            `json:"name"`
			Parent   string            `json:"parent,omitempty"`
			Start    int64             `json:"start_ns"`
			End      int64             `json:"end_ns"`
			Rows     int               `json:"rows,omitempty"`
			Counters map[string]uint64 `json:"counters,omitempty"`
		}{fmt.Sprintf("%s/%s/%d", workload, s.stmt, s.rep), s.name, s.parent, int64(s.start), int64(s.end), s.rows, s.counters})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timeQuiet runs fn reps times under spans and returns the lower
// quartile of the durations.
func timeQuiet(tr *tracer, name string, reps, rows int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		fn()
		end := time.Now()
		tr.record("micro", i, name, "", start, end, rows, nil)
		d[i] = float64(end.Sub(start))
	}
	return time.Duration(lowerQuartile(d))
}

// calibBuf is what the calibration kernel streams: 32 MiB, past the
// private caches.
var calibBuf = func() []uint64 {
	b := make([]uint64, 32<<20/8)
	rng := splitmix64(0xca11b)
	for i := range b {
		b[i] = rng.next()
	}
	return b
}()

// calibrate runs the fixed host-speed kernel, a masked popcount over
// calibBuf (the shape of a bit-parallel scan), and returns its time.
func calibrate() time.Duration {
	start := time.Now()
	var n int
	for _, w := range calibBuf {
		n += bits.OnesCount64(w & 0x5555555555555555)
	}
	sink += uint64(n)
	return time.Since(start)
}

// microRungs measures the layers below any statement: the host, the word
// primitives and the two packers, on the workload's own price and qty
// columns.
func microRungs(p *prepared, tr *tracer, m *metricSet) {
	const reps = 9
	m.set("host.calib_ms", float64(timeQuiet(tr, "host.calib", reps, len(calibBuf), func() { calibrate() }))/1e6)

	// 16 KiB of words through the carry-save block step: cache-resident,
	// so this is the primitive and not the memory behind it.
	words := calibBuf[:2048]
	const csaPasses = 256
	csa := timeQuiet(tr, "word.csa8", reps, len(words)*csaPasses, func() {
		var ones, twos, fours, eights uint64
		for pass := 0; pass < csaPasses; pass++ {
			for i := 0; i+8 <= len(words); i += 8 {
				ones, twos, fours, eights = word.CSA8(ones, twos, fours, (*[8]uint64)(words[i:i+8]))
				sink += eights
			}
		}
		sink += ones + twos + fours
	})
	m.set("word.csa_ns_per_word", float64(csa)/float64(len(words)*csaPasses))

	const transposes = 4096
	var tile [64]uint64
	copy(tile[:], calibBuf)
	tr64 := timeQuiet(tr, "word.transpose64", reps, transposes, func() {
		for i := 0; i < transposes; i++ {
			word.Transpose64(&tile)
		}
		sink += tile[0]
	})
	m.set("word.transpose_ns", float64(tr64)/transposes)

	n := min(p.in.rows, 1<<20)
	for _, def := range []colDef{colPrice, colQty} {
		vals := p.in.cols[def.name][:n]
		prefix := "vbp"
		if def.layout == bpagg.HBP {
			prefix = "hbp"
		}
		pack := timeQuiet(tr, prefix+".pack", reps, n, func() { sink += uint64(packKcol(def, vals).segments()) })
		m.set(prefix+".pack_ns_per_value", float64(pack)/float64(n))
		app := timeQuiet(tr, prefix+".append", reps, n, func() {
			var v *vbp.Column
			var h *hbp.Column
			if def.layout == bpagg.VBP {
				v = vbp.New(def.bits, min(4, def.bits))
			} else {
				h = hbp.New(def.bits, hbp.DefaultTau(def.bits))
			}
			for lo := 0; lo < n; lo += batchRows {
				if v != nil {
					v.Append(vals[lo:min(lo+batchRows, n)]...)
				} else {
					h.Append(vals[lo:min(lo+batchRows, n)]...)
				}
			}
		})
		m.set(prefix+".append_ns_per_value", float64(app)/float64(n))
	}
}

// storeRungs measures the table as a write path on a scratch copy: the
// workload's first batches loaded, the range index opened, then each
// further batch appended and followed by two positional range sums, the
// first of which meets the new epoch.
func storeRungs(p *prepared, tr *tracer, m *metricSet) {
	const warm, timed, edge = 32, 96, 24 // batches; the smallest table loads warm+timed
	batches := p.in.batches
	st := newStore(p.w)
	for _, b := range batches[:warm] {
		st.appendColumnar(b)
	}
	st.openEpoch(colPrice.name)
	rangeSum := func() {
		lo := max(st.rows()-appendWindow, 0)
		if st.sharded != nil {
			sink += st.sharded.Query().Range(lo, st.rows()).Sum(colPrice.name)
		} else {
			sink += st.flat.Query().Range(lo, st.rows()).Sum(colPrice.name)
		}
	}
	var appendUs, firstUs []float64
	for i := 0; i < timed; i++ {
		b := batches[warm+i]
		t0 := time.Now()
		st.appendColumnar(b)
		t1 := time.Now()
		rangeSum()
		t2 := time.Now()
		tr.record("store", i, "bpagg.append", "", t0, t1, batchRows, nil)
		tr.record("store", i, "rangeidx.first_after_append", "", t1, t2, appendWindow, nil)
		appendUs = append(appendUs, float64(t1.Sub(t0))/1e3)
		firstUs = append(firstUs, float64(t2.Sub(t1))/1e3)
	}
	m.set("bpagg.append_us_per_batch", lowerQuartile(appendUs))
	m.set("bpagg.append_drift", lowerQuartile(appendUs[timed-edge:])/lowerQuartile(appendUs[:edge]))
	m.set("rangeidx.first_after_append_us", lowerQuartile(firstUs))

	served := p.inst.backend().st
	m.set("bpagg.bytes_per_row", float64(served.memoryWords()*8)/float64(served.rows()))
	tm := p.setups[0]
	m.set("bpagg.write_mb_per_s", float64(tm.bytes)/1e6/tm.write.Seconds())
	m.set("bpagg.read_mb_per_s", float64(tm.bytes)/1e6/tm.read.Seconds())
}

// climbed is one plan's ladder: each rung's time in every repeat, its
// quiet time (the lower quartile of those) and its last counters.
type climbed struct {
	pl   *plan
	reps map[string][]float64 // ns, in repeat order
	ns   map[string]float64
	ctr  map[string]map[string]uint64
}

// coreRungs names the kernels the engine's own path runs: the fused
// kernels when the plan fuses, scan plus bitmap kernels otherwise.
func (c climbed) coreRungs() []string {
	if _, ok := c.ns["core.fused"]; ok {
		return []string{"core.fused"}
	}
	return []string{"scan", "core.agg"}
}

// over is a layer's self time on one statement: what the upper rungs take
// over the lower ones, as the median over the repeats of the difference.
// The rungs of one repeat run back to back, so a slow stretch of the host
// slows both sides of a difference and mostly cancels; between two
// quartiles, which may come from different repeats, it does not.
func (c climbed) over(upper, lower []string) float64 {
	d := make([]float64, len(c.reps[upper[0]]))
	for i := range d {
		for _, r := range upper {
			d[i] += c.reps[r][i]
		}
		for _, r := range lower {
			d[i] -= c.reps[r][i]
		}
	}
	return median(d)
}

// pick returns the op statements that climbed rung and that keep
// accepts or, when the op has none, the probes that did. A metric is
// therefore never a mix of the two: it is a share of the op, or it is a
// property of the workload's table measured beside it.
func pick(all []climbed, rung string, keep func(*plan) bool) []climbed {
	var ops, probes []climbed
	for _, c := range all {
		if _, ok := c.ns[rung]; !ok || !keep(c.pl) {
			continue
		}
		if c.pl.probe {
			probes = append(probes, c)
		} else {
			ops = append(ops, c)
		}
	}
	if len(ops) > 0 {
		return ops
	}
	return probes
}

func ofClass(class string) func(*plan) bool {
	return func(p *plan) bool { return p.class == class }
}

// sumNs adds up the rungs' quiet times over the statements.
func sumNs(cs []climbed, rungs ...string) float64 {
	t := 0.0
	for _, c := range cs {
		for _, r := range rungs {
			t += c.ns[r]
		}
	}
	return t
}

func sumCtr(cs []climbed, rung, counter string) float64 {
	t := 0.0
	for _, c := range cs {
		t += float64(c.ctr[rung][counter])
	}
	return t
}

// ladderSlack is how far below zero a layer's self time may come out, as
// a share of the rungs below it, and still pass for the noise of
// subtracting two measured times: a few per cent in a slow stretch of
// the host. Rungs that do not nest miss by half and more.
const ladderSlack = 0.25

// checkNested checks a layer's self time, summed over statements, against
// the summed rungs below it. A little below zero is a layer too thin for
// the ladder to resolve: the figure stands as measured, with a note.
// Further below, the rung under the layer did work the layer's own call
// does not do and the figure would get better as that rung got slower,
// so the run fails.
func checkNested(layer string, self, below float64) error {
	if self >= 0 {
		return nil
	}
	if -self > ladderSlack*below {
		return fmt.Errorf("ladder: the %s rung took %.1f us less than the %.1f us of the rungs below it: they do not nest", layer, -self/1e3, below/1e3)
	}
	fmt.Printf("note: %s.self_us is below what the ladder resolves: %.1f us against %.1f us in the rungs below\n", layer, self/1e3, below/1e3)
	return nil
}

// ladderMetrics folds the climbed plans into the per-layer metrics. Sums
// are over one round of the op (its whole statement list); per-row
// figures divide by the rows those statements covered.
func ladderMetrics(all []climbed, rows int, m *metricSet) error {
	perRow := func(ns float64, cs []climbed) float64 { return ns / (float64(len(cs)) * float64(rows)) }
	every := func(*plan) bool { return true }

	filters := pick(all, "parallel.t1", ofClass(classFilter))
	m.set("host.memmove_ns_per_row", perRow(sumNs(filters, "host.memmove"), filters))
	m.set("core.agg_ns_per_row", perRow(sumNs(filters, "core.agg"), filters))
	fused := pick(filters, "core.fused", every)
	m.set("core.fused_ns_per_row", perRow(sumNs(fused, "core.fused"), fused))
	m.set("core.words_per_row", perRow(sumCtr(filters, "parallel.t1", "words_touched"), filters))
	m.set("parallel.fused_ns_per_row", perRow(sumNs(filters, "parallel.t1"), filters))
	m.set("parallel.t2_speedup", sumNs(filters, "parallel.t1")/sumNs(filters, "parallel.t2"))
	var coreNs, parSelf, facadeSelf float64
	for _, c := range filters {
		coreNs += sumNs([]climbed{c}, c.coreRungs()...)
		parSelf += c.over([]string{"parallel.t1"}, c.coreRungs())
		facadeSelf += c.over([]string{"bpagg"}, []string{"parallel.t1"})
	}
	if err := checkNested("parallel", parSelf, coreNs); err != nil {
		return err
	}
	if err := checkNested("bpagg", facadeSelf, sumNs(filters, "parallel.t1")); err != nil {
		return err
	}
	m.set("parallel.self_us", parSelf/1e3)
	m.set("bpagg.self_us", facadeSelf/1e3)

	scans := pick(all, "scan", func(p *plan) bool { return len(p.preds) > 0 })
	m.set("scan.ns_per_row", perRow(sumNs(scans, "scan"), scans))
	m.set("scan.words_per_row", perRow(sumCtr(scans, "scan", "words_compared"), scans))
	m.set("scan.pruned_share", sumCtr(scans, "scan", "segments_pruned")/sumCtr(scans, "scan", "segments_considered"))

	groups := pick(all, "core.group", ofClass(classGroup))
	m.set("core.group_ns_per_row", perRow(sumNs(groups, "core.group"), groups))
	m.set("core.hash_probes_per_row", perRow(sumCtr(groups, "core.group", "hash_probes"), groups))
	m.set("bpagg.groupby_ms", sumNs(pick(all, "bpagg", ofClass(classGroup)), "bpagg")/1e6)
	m.set("core.rank_rounds", sumCtr(pick(all, "core.rank", ofClass(classRank)), "core.rank", "radix_rounds"))

	ranges := pick(all, "bpagg", ofClass(classRange))
	m.set("rangeidx.lookup_us", sumNs(ranges, "bpagg")/float64(len(ranges))/1e3)

	ungrouped := pick(all, "bpagg", func(p *plan) bool { return p.class != classGroup })
	m.set("bpagg.query_ms", sumNs(ungrouped, "bpagg")/1e6)

	ops := pick(all, "server.rtt", func(p *plan) bool { return !p.probe })
	var sqlSelf, srvSelf float64
	sqlRungs := []string{"sqlmini.parse", "sqlmini.exec"}
	for _, c := range ops {
		sqlSelf += c.over(sqlRungs, []string{"bpagg"})
		srvSelf += c.over([]string{"server.rtt"}, sqlRungs)
	}
	if err := checkNested("sqlmini", sqlSelf, sumNs(ops, "bpagg")); err != nil {
		return err
	}
	if err := checkNested("server", srvSelf, sumNs(ops, sqlRungs...)); err != nil {
		return err
	}
	m.set("sqlmini.parse_us", sumNs(ops, "sqlmini.parse")/1e3)
	m.set("sqlmini.exec_ms", sumNs(ops, "sqlmini.exec")/1e6)
	m.set("sqlmini.self_us", sqlSelf/1e3)
	m.set("server.rtt_ms", sumNs(ops, "server.rtt")/1e6)
	m.set("server.self_us", srvSelf/1e3)
	m.set("server.collector_pct", (sumNs(ops, "sqlmini.exec")/sumNs(ops, "sqlmini.bare")-1)*100)
	return nil
}

// sqlRungs measures what the ladder's per-call spans are too coarse for:
// literal binding in the catalog and the allocation of one round through
// sqlmini.
func sqlRungs(p *prepared, tr *tracer, m *metricSet) error {
	cat := p.inst.backend().cat
	type literal struct {
		col string
		v   float64
	}
	var lits []literal
	var parsed []*sqlmini.Query
	for _, sql := range p.w.stmts {
		q, err := sqlmini.Parse(sql)
		if err != nil {
			return err
		}
		parsed = append(parsed, q)
		for _, c := range q.Where {
			if c.Column == "rownum" {
				continue
			}
			for _, l := range c.Lits {
				lits = append(lits, literal{c.Column, l.Num})
			}
		}
	}
	const binds = 1000
	bind := timeQuiet(tr, "catalog.bind", 9, binds*len(lits), func() {
		for i := 0; i < binds; i++ {
			for _, l := range lits {
				cr, _ := cat.NumToCode(l.col, l.v)
				sink += cr.Floor
			}
		}
	})
	m.set("catalog.bind_us", float64(bind)/float64(binds*len(lits))/1e3)

	const rounds = 20
	before := totalAlloc()
	for i := 0; i < rounds; i++ {
		for j, sql := range p.w.stmts {
			if _, err := sqlmini.Parse(sql); err != nil {
				return err
			}
			o := execOptions
			o.Stats = bpagg.NewStatsCollector()
			if _, err := sqlmini.ExecuteContext(context.Background(), cat, parsed[j], o); err != nil {
				return err
			}
		}
	}
	m.set("sqlmini.alloc_kb", float64(totalAlloc()-before)/1024/rounds)
	return nil
}

// probeReps is the ladder's repeat count for probe statements, which can
// be far heavier than the op they ride along with.
const probeReps = 9

// runTraced is the run the per-layer metrics come from.
func runTraced(w *workload, seed uint64, seconds time.Duration, outDir string) (result, error) {
	p, err := prepare(w, seed, false)
	if err != nil {
		return result{}, err
	}
	defer p.inst.close()
	tr := &tracer{t0: time.Now()}
	m := newMetricSet(perLayer)

	microRungs(p, tr, m)

	// The ladder: op statements, then probes, each verified first.
	l := &ladder{p: p, kcols: map[string]kcol{}, conn: newConn(p.inst, nil), ctx: context.Background()}
	defer l.conn.close()
	var all []climbed
	for i, sql := range append(append([]string(nil), w.stmts...), w.probes...) {
		probe := i >= len(w.stmts)
		id, reps := fmt.Sprintf("s%d", i), w.ladderReps
		var want []byte
		if probe {
			id, reps = fmt.Sprintf("p%d", i-len(w.stmts)), probeReps
			if want, err = oracleAnswer(p.inst.backend().cat, p.in.cols, p.in.rows, sql); err != nil {
				return result{}, fmt.Errorf("%s: %w", sql, err)
			}
		} else {
			want = p.want[i]
		}
		pl, err := newPlan(id, sql, probe, want)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", sql, err)
		}
		times, ctr, err := l.climb(pl, reps, tr)
		if err != nil {
			return result{}, err
		}
		c := climbed{pl: pl, reps: map[string][]float64{}, ns: map[string]float64{}, ctr: ctr}
		for name, ds := range times {
			f := make([]float64, len(ds))
			for j, d := range ds {
				f[j] = float64(d)
			}
			c.reps[name], c.ns[name] = f, lowerQuartile(f)
		}
		all = append(all, c)
	}
	l.kcols = nil
	if err := ladderMetrics(all, p.in.rows, m); err != nil {
		return result{}, err
	}
	if err := sqlRungs(p, tr, m); err != nil {
		return result{}, err
	}
	storeRungs(p, tr, m)

	// One loop in which every other op is traced: the two halves see the
	// same state of the host, so their difference is what tracing costs.
	// It must stay small for the ladder to say anything about the
	// untraced run.
	clients, err := p.clients(seed, nil)
	if err != nil {
		return result{}, err
	}
	period := 1
	if !w.round && !w.appends {
		period = len(w.stmts)
	}
	for i, c := range clients {
		clients[i] = &alternating{client: c, tr: tr, period: period}
	}
	runLoop(clients, seconds/warmupPerRun, seconds/blocksPerRun)
	loop := runLoop(clients, seconds, seconds/blocksPerRun)
	for _, c := range clients {
		c.close()
	}
	ls, err := loop.stats()
	if err != nil {
		return result{}, err
	}
	half := len(ls.stepMs) / 2
	plain, traced := loopStats{stepMs: ls.stepMs[:half]}, loopStats{stepMs: ls.stepMs[half:]}
	m.set("trace.overhead_pct", (traced.svcMs(w)/plain.svcMs(w)-1)*100)
	m.set("p50_ms", ls.p50Ms)
	m.set("tail_ms", ls.tailMs)
	m.set("tail_pct", ls.tailPct)

	cs := p.inst.backend().srv.CountersSnapshot()
	m.set("server.shed_share", float64(cs.Shed)/float64(cs.Admitted+cs.Shed))
	m.set("server.batched_share", float64(cs.Batched)/float64(cs.Answered))

	if err := tr.write(filepath.Join(outDir, w.name+".trace.jsonl"), w.name); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	metrics, err := m.done()
	return result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed, Metrics: metrics}, err
}
