package main

import (
	"context"
	"fmt"
	"time"

	"bpagg"
	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/parallel"
	"bpagg/internal/scan"
	"bpagg/internal/sqlmini"
	"bpagg/internal/vbp"
)

// The layer ladder. For every statement the harness calls each layer's
// public entry point directly, bottom to top, for a fixed count, and
// wraps each call in a span. A layer's self time is its rung's time
// minus the rung below. The rungs:
//
//	host.memmove   copy of the bytes the statement's columns occupy
//	scan           scan.VBPStats/HBPStats per conjunct, ANDed
//	core.agg       core.*Sum/Min/Max on the scan's bitmap
//	core.fused     core.*Fused* over the window predicates (when every
//	               column shares one window width)
//	core.group     parallel.*GroupPartitionCtx / HashGroupPartitionCtx
//	core.rank      parallel.*RankCtx / *FusedRankCtx
//	parallel.t1    the engine's own path through parallel.*Ctx, Threads 1
//	parallel.t2    the same, Threads 2
//	bpagg          the public Query / ShardedQuery API, as sqlmini drives it
//	sqlmini.parse  sqlmini.Parse
//	sqlmini.exec   sqlmini.ExecuteContext with a collector, as the server runs it
//	sqlmini.bare   the same without a collector
//	server.rtt     POST round trip on loopback
//
// Rungs a statement cannot express are left out: GROUP BY and rank start
// at their partition or rank driver, rownum statements at bpagg. On a
// sharded table the op's statements start at bpagg too: the engine
// answers them from the shard catalog, the caches and the range index,
// which the rungs below, run by hand on a flat packing of the columns,
// would not reproduce, so they would not nest under it. The rungs below
// are measured there on probes over the uniform columns, where the shard
// catalog has nothing to prune and both paths do the same work.

// kcol is a column packed by the harness for the rungs below the public
// API, which hides its own.
type kcol struct {
	def colDef
	v   *vbp.Column
	h   *hbp.Column
}

func packKcol(def colDef, vals []uint64) kcol {
	if def.layout == bpagg.VBP {
		return kcol{def: def, v: vbp.Pack(vals, def.bits, min(4, def.bits))}
	}
	return kcol{def: def, h: hbp.Pack(vals, def.bits, hbp.DefaultTau(def.bits))}
}

func (c kcol) window() int {
	if c.v != nil {
		return vbp.SegBits
	}
	return c.h.ValuesPerSegment()
}

func (c kcol) segments() int {
	if c.v != nil {
		return c.v.NumSegments()
	}
	return c.h.NumSegments()
}

func (c kcol) bytes() int {
	if c.v != nil {
		return c.v.MemoryWords() * 8
	}
	return c.h.MemoryWords() * 8
}

func (c kcol) scan(p scan.Predicate, es *metrics.ExecStats) *bitvec.Bitmap {
	if c.v != nil {
		return scan.VBPStats(c.v, p, es)
	}
	return scan.HBPStats(c.h, p, es)
}

func (c kcol) windowPred(p scan.Predicate) scan.WindowPred {
	if c.v != nil {
		return scan.NewVBPWindowPred(c.v, p)
	}
	return scan.NewHBPWindowPred(c.h, p)
}

func (c kcol) groupCol() parallel.GroupCol { return parallel.GroupCol{V: c.v, H: c.h} }

// boundPred is one conjunct in the three predicate spaces the rungs use.
type boundPred struct {
	col  string
	pub  bpagg.Predicate
	scan scan.Predicate
}

// bindConds translates a WHERE list with whole-number literals the way
// sqlmini binds it: BETWEEN becomes a >= and a <= conjunct, rownum BETWEEN
// becomes the half-open row range.
func bindConds(conds []sqlmini.Condition) (preds []boundPred, rng *[2]int, err error) {
	one := func(col string, op sqlmini.CmpOp, v uint64) error {
		var bp boundPred
		switch op {
		case sqlmini.OpLt:
			bp = boundPred{col, bpagg.Less(v), scan.Predicate{Op: scan.LT, A: v}}
		case sqlmini.OpLe:
			bp = boundPred{col, bpagg.LessEq(v), scan.Predicate{Op: scan.LE, A: v}}
		case sqlmini.OpGt:
			bp = boundPred{col, bpagg.Greater(v), scan.Predicate{Op: scan.GT, A: v}}
		case sqlmini.OpGe:
			bp = boundPred{col, bpagg.GreaterEq(v), scan.Predicate{Op: scan.GE, A: v}}
		case sqlmini.OpEq:
			bp = boundPred{col, bpagg.Equal(v), scan.Predicate{Op: scan.EQ, A: v}}
		default:
			return fmt.Errorf("ladder: unsupported operator %v", op)
		}
		preds = append(preds, bp)
		return nil
	}
	for _, c := range conds {
		p, err := oraclePred(c) // checks the literals are whole numbers
		if err != nil {
			return nil, nil, err
		}
		switch {
		case c.Column == "rownum":
			rng = &[2]int{int(p.A), int(p.B) + 1}
		case c.Op == sqlmini.OpBetween:
			if err := one(c.Column, sqlmini.OpGe, p.A); err != nil {
				return nil, nil, err
			}
			err = one(c.Column, sqlmini.OpLe, p.B)
		default:
			err = one(c.Column, c.Op, p.A)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return preds, rng, nil
}

// Statement classes: which rungs a statement starts at.
const (
	classFilter = "filter" // conjuncts and ungrouped SUM/COUNT/AVG/MIN/MAX
	classGroup  = "group"  // GROUP BY
	classRank   = "rank"   // ungrouped MEDIAN/QUANTILE
	classRange  = "range"  // rownum BETWEEN, served by the range index
)

// plan is a statement prepared for the ladder.
type plan struct {
	id    string // s<i> for op statements, p<i> for probes
	sql   string
	probe bool
	q     *sqlmini.Query
	preds []boundPred
	rng   *[2]int
	class string
	want  []byte
}

func newPlan(id, sql string, probe bool, want []byte) (*plan, error) {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	p := &plan{id: id, sql: sql, probe: probe, q: q, want: want}
	if p.preds, p.rng, err = bindConds(q.Where); err != nil {
		return nil, err
	}
	switch {
	case p.rng != nil:
		p.class = classRange
	case len(q.GroupBy) > 0:
		p.class = classGroup
	default:
		p.class = classFilter
		for _, s := range q.Selects {
			if s.Func == sqlmini.Median || s.Func == sqlmini.Quantile {
				p.class = classRank
			}
		}
	}
	return p, nil
}

// columns lists the distinct table columns a plan's kernels read.
func (p *plan) columns() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, bp := range p.preds {
		add(bp.col)
	}
	for _, g := range p.q.GroupBy {
		add(g)
	}
	for _, s := range p.q.Selects {
		add(s.Column)
	}
	return out
}

// rung is one timed call of the ladder; parent names the rung above it.
// counters may be nil.
type rung struct {
	name   string
	parent string
	run    func() (counters map[string]uint64, err error)
}

// ladder holds what the rungs share.
type ladder struct {
	p     *prepared
	kcols map[string]kcol
	conn  conn
	ctx   context.Context
}

func (l *ladder) kcol(name string) kcol {
	c, ok := l.kcols[name]
	if !ok {
		for _, d := range l.p.w.cols {
			if d.name == name {
				c = packKcol(d, l.p.in.cols[name])
			}
		}
		l.kcols[name] = c
	}
	return c
}

// fusible reports whether the engine fuses the plan: there is a filter
// and every column involved shares one window width.
func (l *ladder) fusible(pl *plan) bool {
	if len(pl.preds) == 0 {
		return false
	}
	w := l.kcol(pl.preds[0].col).window()
	for _, name := range pl.columns() {
		if l.kcol(name).window() != w {
			return false
		}
	}
	return true
}

func (l *ladder) windowPreds(pl *plan) []scan.WindowPred {
	out := make([]scan.WindowPred, len(pl.preds))
	for i, bp := range pl.preds {
		out[i] = l.kcol(bp.col).windowPred(bp.scan)
	}
	return out
}

// scanAll runs every conjunct's scan and intersects them; with no
// conjunct every row is selected.
func (l *ladder) scanAll(pl *plan, es *metrics.ExecStats) *bitvec.Bitmap {
	if len(pl.preds) == 0 {
		return bitvec.NewFull(l.p.in.rows)
	}
	var f *bitvec.Bitmap
	for _, bp := range pl.preds {
		m := l.kcol(bp.col).scan(bp.scan, es)
		if f == nil {
			f = m
		} else {
			f.And(m)
		}
	}
	return f
}

func scanCounters(es metrics.ExecStats) map[string]uint64 {
	return map[string]uint64{
		"words_compared":      es.WordsCompared,
		"segments_considered": es.SegmentsConsidered(),
		"segments_pruned":     es.SegmentsPruned(),
	}
}

func aggCounters(es metrics.ExecStats) map[string]uint64 {
	return map[string]uint64{
		"words_touched": es.WordsTouched,
		"hash_probes":   es.HashProbes,
		"groups":        es.GroupsDiscovered,
		"radix_rounds":  es.RadixRounds,
	}
}

// aggFamily groups the aggregate functions by the kernel family that
// computes them.
type aggFamily int

const (
	famCount   aggFamily = iota // COUNT(*), COUNT(col): no NULLs in any workload
	famSum                      // SUM, AVG
	famExtreme                  // MIN, MAX
	famRank                     // MEDIAN, QUANTILE
)

func familyOf(f sqlmini.AggFunc) aggFamily {
	switch f {
	case sqlmini.CountStar, sqlmini.Count:
		return famCount
	case sqlmini.Sum, sqlmini.Avg:
		return famSum
	case sqlmini.Min, sqlmini.Max:
		return famExtreme
	default:
		return famRank
	}
}

// coreAgg runs the two-phase kernels on a bitmap, one per select
// expression.
func (l *ladder) coreAgg(pl *plan, f *bitvec.Bitmap) error {
	for _, s := range pl.q.Selects {
		c := l.kcol(s.Column)
		var v uint64
		switch fam := familyOf(s.Func); {
		case fam == famCount:
			v = core.Count(f)
		case fam == famSum && c.v != nil:
			v = core.VBPSum(c.v, f)
		case fam == famSum:
			v = core.HBPSum(c.h, f)
		case s.Func == sqlmini.Min && c.v != nil:
			v, _ = core.VBPMin(c.v, f)
		case s.Func == sqlmini.Min:
			v, _ = core.HBPMin(c.h, f)
		case s.Func == sqlmini.Max && c.v != nil:
			v, _ = core.VBPMax(c.v, f)
		case s.Func == sqlmini.Max:
			v, _ = core.HBPMax(c.h, f)
		default:
			return fmt.Errorf("ladder: core.agg cannot run %v", s.Func)
		}
		sink += v
	}
	return nil
}

// coreFused runs the fused kernels over the whole segment range, one per
// select expression, the way the parallel drivers call them per worker.
func (l *ladder) coreFused(pl *plan, wps []scan.WindowPred, st *core.FusedStats) error {
	for _, s := range pl.q.Selects {
		fam := familyOf(s.Func)
		c := l.kcol(s.Column)
		if fam == famCount {
			c = l.kcol(pl.preds[0].col) // the first conjunct's column drives the windows
		}
		nseg := c.segments()
		wantMin := s.Func == sqlmini.Min
		var v uint64
		switch {
		case fam == famCount && c.v != nil:
			v = core.VBPFusedCount(c.v, wps, 0, nseg, st)
		case fam == famCount:
			v = core.HBPFusedCount(c.h, wps, 0, nseg, st)
		case fam == famSum && c.v != nil:
			v, _ = core.VBPFusedSumCount(c.v, wps, 0, nseg, st)
		case fam == famSum:
			v, _ = core.HBPFusedSumCount(c.h, wps, 0, nseg, st)
		case fam == famExtreme:
			// As the parallel drivers do for one worker: fold, finish,
			// then let the cache-served segments' scalar best compete.
			var best, cnt uint64
			var any bool
			if c.v != nil {
				temp := core.NewVBPExtremeTemp(c.def.bits, wantMin)
				best, any, cnt = core.VBPFusedFoldExtreme(c.v, wps, temp, wantMin, 0, nseg, st)
				v = core.VBPFinishExtreme([][]uint64{temp}, c.def.bits, wantMin)
			} else {
				temp := core.NewHBPExtremeTemp(c.h, wantMin)
				best, any, cnt = core.HBPFusedFoldExtreme(c.h, wps, temp, wantMin, 0, nseg, st)
				v = core.HBPFinishExtreme(c.h, [][]uint64{temp}, wantMin)
			}
			if any && cnt > 0 && (wantMin && best < v || !wantMin && best > v) {
				v = best
			}
		default:
			return fmt.Errorf("ladder: core.fused cannot run %v", s.Func)
		}
		sink += v
	}
	return nil
}

func medianRank(u uint64) (uint64, bool) { return (u + 1) / 2, u > 0 }

// quantileRank is the engine's nearest-rank rule for quantile q.
func quantileRank(q float64) func(uint64) (uint64, bool) {
	return func(u uint64) (uint64, bool) {
		if u == 0 {
			return 0, false
		}
		return min(max(uint64(float64(u)*q+0.999999999), 1), u), true
	}
}

// parallelPath runs the plan's filter and aggregates the way the engine
// does, through the parallel drivers: fused when the plan fuses, a scan
// and the bitmap drivers otherwise.
func (l *ladder) parallelPath(pl *plan, o parallel.Options) error {
	var (
		wps []scan.WindowPred
		f   *bitvec.Bitmap
	)
	fused := l.fusible(pl)
	if fused {
		wps = l.windowPreds(pl)
	} else {
		var es metrics.ExecStats
		f = l.scanAll(pl, &es)
	}
	for _, s := range pl.q.Selects {
		fam := familyOf(s.Func)
		c := l.kcol(s.Column)
		if fam == famCount {
			if !fused {
				sink += uint64(f.Count())
				continue
			}
			c = l.kcol(pl.preds[0].col)
		}
		rankOf := medianRank
		if s.Func == sqlmini.Quantile {
			rankOf = quantileRank(s.Arg)
		}
		wantMin, isVBP := s.Func == sqlmini.Min, c.v != nil
		var (
			v   uint64
			err error
		)
		switch {
		case fused && fam == famCount && isVBP:
			v, err = parallel.VBPFusedCountCtx(l.ctx, c.v, wps, o)
		case fused && fam == famCount:
			v, err = parallel.HBPFusedCountCtx(l.ctx, c.h, wps, o)
		case fused && fam == famSum && isVBP:
			v, _, err = parallel.VBPFusedSumCtx(l.ctx, c.v, wps, o)
		case fused && fam == famSum:
			v, _, err = parallel.HBPFusedSumCtx(l.ctx, c.h, wps, o)
		case fused && fam == famExtreme && isVBP:
			v, _, err = parallel.VBPFusedExtremeCtx(l.ctx, c.v, wps, o, wantMin)
		case fused && fam == famExtreme:
			v, _, err = parallel.HBPFusedExtremeCtx(l.ctx, c.h, wps, o, wantMin)
		case fused && isVBP:
			v, _, _, err = parallel.VBPFusedRankCtx(l.ctx, c.v, wps, rankOf, o)
		case fused:
			v, _, _, err = parallel.HBPFusedRankCtx(l.ctx, c.h, wps, rankOf, o)
		case fam == famSum && isVBP:
			v, err = parallel.VBPSumCtx(l.ctx, c.v, f, o)
		case fam == famSum:
			v, err = parallel.HBPSumCtx(l.ctx, c.h, f, o)
		case s.Func == sqlmini.Min && isVBP:
			v, _, err = parallel.VBPMinCtx(l.ctx, c.v, f, o)
		case s.Func == sqlmini.Min:
			v, _, err = parallel.HBPMinCtx(l.ctx, c.h, f, o)
		case s.Func == sqlmini.Max && isVBP:
			v, _, err = parallel.VBPMaxCtx(l.ctx, c.v, f, o)
		case s.Func == sqlmini.Max:
			v, _, err = parallel.HBPMaxCtx(l.ctx, c.h, f, o)
		default: // rank on a bitmap
			r, ok := rankOf(uint64(f.Count()))
			if !ok {
				continue
			}
			if isVBP {
				v, _, err = parallel.VBPRankCtx(l.ctx, c.v, f, r, o)
			} else {
				v, _, err = parallel.HBPRankCtx(l.ctx, c.h, f, r, o)
			}
		}
		if err != nil {
			return err
		}
		sink += v
	}
	return nil
}

// groupPartition runs the engine's single-pass partition: the direct
// tier for one key column of at most core.DirectKeyBits bits, the hash
// tier otherwise.
func (l *ladder) groupPartition(pl *plan, f *bitvec.Bitmap, o parallel.Options) error {
	if len(pl.q.GroupBy) == 1 {
		if c := l.kcol(pl.q.GroupBy[0]); c.def.bits <= core.DirectKeyBits {
			var (
				keys []uint64
				err  error
			)
			if c.v != nil {
				keys, _, err = parallel.VBPGroupPartitionCtx(l.ctx, c.v, f, o)
			} else {
				keys, _, err = parallel.HBPGroupPartitionCtx(l.ctx, c.h, f, o)
			}
			sink += uint64(len(keys))
			return err
		}
	}
	gcols := make([]parallel.GroupCol, len(pl.q.GroupBy))
	for i, g := range pl.q.GroupBy {
		gcols[i] = l.kcol(g).groupCol()
	}
	hp, err := parallel.HashGroupPartitionCtx(l.ctx, gcols, f, l.p.in.rows, core.MaxHashGroups, o)
	if err != nil {
		return err
	}
	sink += uint64(len(hp.Keys))
	return nil
}

// kernelRungs lists the rungs below the public API, bottom to top: the
// harness's own calls into scan, core and parallel over its flat packing
// of the columns.
func (l *ladder) kernelRungs(pl *plan) []rung {
	var out []rung
	add := func(name, parent string, run func() (map[string]uint64, error)) {
		out = append(out, rung{name, parent, run})
	}
	var f *bitvec.Bitmap // the scan rung's bitmap, consumed by the rung above it

	if pl.class == classFilter {
		n := 0
		for _, name := range pl.columns() {
			n += l.kcol(name).bytes()
		}
		src, dst := make([]byte, n), make([]byte, n)
		add("host.memmove", "scan", func() (map[string]uint64, error) {
			copy(dst, src)
			return map[string]uint64{"bytes": uint64(len(src))}, nil
		})
	}
	above := map[string]string{classFilter: "core.agg", classGroup: "core.group", classRank: "core.rank"}
	add("scan", above[pl.class], func() (map[string]uint64, error) {
		var es metrics.ExecStats
		f = l.scanAll(pl, &es)
		return scanCounters(es), nil
	})
	switch pl.class {
	case classFilter:
		add("core.agg", "parallel.t1", func() (map[string]uint64, error) { return nil, l.coreAgg(pl, f) })
		if l.fusible(pl) {
			wps := l.windowPreds(pl)
			add("core.fused", "parallel.t1", func() (map[string]uint64, error) {
				var st core.FusedStats
				err := l.coreFused(pl, wps, &st)
				return map[string]uint64{"words_compared": st.WordsCompared, "words_touched": st.WordsTouched,
					"segments_cache_served": st.SegmentsCacheServed}, err
			})
		}
	case classGroup:
		add("core.group", "bpagg", func() (map[string]uint64, error) {
			rec := metrics.NewCollector()
			err := l.groupPartition(pl, f, parallel.Options{Threads: 1, Stats: rec})
			return aggCounters(rec.Snapshot()), err
		})
	}
	if pl.class == classFilter || pl.class == classRank {
		name := "parallel.t1"
		if pl.class == classRank {
			name = "core.rank"
		}
		add(name, "bpagg", func() (map[string]uint64, error) {
			rec := metrics.NewCollector()
			err := l.parallelPath(pl, parallel.Options{Threads: 1, Stats: rec})
			return aggCounters(rec.Snapshot()), err
		})
	}
	if pl.class == classFilter {
		add("parallel.t2", "bpagg", func() (map[string]uint64, error) {
			return nil, l.parallelPath(pl, parallel.Options{Threads: 2, Stats: metrics.NewCollector()})
		})
	}
	return out
}

// rungs lists the plan's rungs, bottom to top.
func (l *ladder) rungs(pl *plan) []rung {
	var out []rung
	add := func(name, parent string, run func() (map[string]uint64, error)) {
		out = append(out, rung{name, parent, run})
	}
	cat := l.p.inst.backend().cat
	if pl.class != classRange && (pl.probe || l.p.w.shardRows == 0) {
		out = l.kernelRungs(pl)
	}
	add("bpagg", "sqlmini.exec", func() (map[string]uint64, error) {
		rec := bpagg.NewStatsCollector()
		err := l.facade(pl, rec)
		return aggCounters(rec.Snapshot()), err
	})
	var parsed *sqlmini.Query
	add("sqlmini.parse", "server.rtt", func() (map[string]uint64, error) {
		var err error
		parsed, err = sqlmini.Parse(pl.sql)
		return nil, err
	})
	add("sqlmini.exec", "server.rtt", func() (map[string]uint64, error) {
		o := execOptions
		o.Stats = bpagg.NewStatsCollector()
		_, err := sqlmini.ExecuteContext(l.ctx, cat, parsed, o)
		return nil, err
	})
	add("sqlmini.bare", "server.rtt", func() (map[string]uint64, error) {
		_, err := sqlmini.ExecuteContext(l.ctx, cat, parsed, execOptions)
		return nil, err
	})
	add("server.rtt", "", func() (map[string]uint64, error) {
		if !l.conn.post(pl.sql, pl.want) {
			return nil, fmt.Errorf("ladder: wrong answer to %s", pl.sql)
		}
		return nil, nil
	})
	return out
}

// climb runs the plan's rungs back to back reps times and returns each
// rung's durations and its counters from the last rep.
func (l *ladder) climb(pl *plan, reps int, tr *tracer) (map[string][]time.Duration, map[string]map[string]uint64, error) {
	rungs := l.rungs(pl)
	// sqlmini.exec and sqlmini.bare are the same call with and without a
	// collector; whichever runs second finds the caches warm, so they
	// swap places on odd reps.
	swapped := append([]rung(nil), rungs...)
	for i := 1; i < len(swapped); i++ {
		if swapped[i-1].name == "sqlmini.exec" && swapped[i].name == "sqlmini.bare" {
			swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		}
	}
	times := map[string][]time.Duration{}
	counters := map[string]map[string]uint64{}
	for rep := 0; rep < reps; rep++ {
		order := rungs
		if rep%2 == 1 {
			order = swapped
		}
		for _, r := range order {
			start := time.Now()
			c, err := r.run()
			end := time.Now()
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", pl.sql, r.name, err)
			}
			tr.record(pl.id, rep, r.name, r.parent, start, end, l.p.in.rows, c)
			times[r.name] = append(times[r.name], end.Sub(start))
			counters[r.name] = c
		}
	}
	return times, counters, nil
}
