package parallel

import (
	"context"
	"slices"
	"time"

	"bpagg/internal/core"
	"bpagg/internal/metrics"
)

// RankPart is one part of a rank descent: a measure column, its candidate
// runs and Slot, which maps the runs' group ids to result groups (nil: the
// same id). A grouped part's candidates are its partition's run list (HP),
// cut by the descent; a scalar part's are the windows a filter selects,
// cut by FilterRankPart as result group 0. A flat rank or GROUP BY is one
// part, a sharded one a part per live shard; every part's column has one
// layout and width.
type RankPart struct {
	Col  GroupCol
	HP   *HashPartition
	Slot []int32

	cands []*core.SegEntries // the runs: one list per cutting worker, or the descent's cut of HP
	rows  uint64             // the rows its filter selects
	rec   metrics.ExecStats  // the filter's scan-side counters and the cut's time
}

// FilterRankPart cuts a scalar rank part over col from src: core.Select
// appends each live window to a one-group list, every worker into its
// own, sized for its whole span (12 B a window, live or not). src must
// already exclude col's NULL rows. The cut records nothing itself;
// RankCtx books its counters with the descent's.
func FilterRankPart(ctx context.Context, col GroupCol, src core.Filter, o Options) (RankPart, error) {
	ws, start := o.statsBegin()
	spans := partition(col.nseg(), o.threads())
	parts := make([]worker, len(spans))
	cands := make([]*core.SegEntries, len(spans))
	for w, s := range spans {
		cands[w] = &core.SegEntries{Segs: make([]int32, 0, s[1]-s[0]), W: make([]uint64, 0, s[1]-s[0])}
	}
	vps, n := col.vps(), col.rows()
	if _, err := each(ctx, ws, col.nseg(), 1, len(parts), func(w, lo, hi int) {
		parts[w].cnt += core.Select(src, vps, n, cands[w], lo, hi, &parts[w].st)
	}); err != nil {
		return RankPart{}, err
	}
	_, _, rows, fs := merge(parts)
	p := RankPart{Col: col, cands: cands, rows: rows}
	if ws != nil {
		p.rec = filterStats(fs, src)
		for w := range ws {
			p.rec.WorkerBusyNanos += ws[w].WorkerBusyNanos
		}
		p.rec.AggNanos = time.Since(start).Nanoseconds()
	}
	return p, nil
}

// RankCtx answers one order statistic for each of groups result groups in
// one radix descent over every part at once (DESIGN.md §12): Algorithm 3's
// loop on VBP, Algorithm 6's on HBP, with one counter (VBP) or one
// histogram (HBP) per group. rankOf maps a group's candidate count to the
// 1-based rank it wants; a group it refuses reports ok[i] = false. Each
// round is one rendezvous — the per-group counts summed over workers and
// parts, ctx checked, every group's bit or bin decided and pushed back —
// so the descent takes k rounds (VBP) or chunks × bit-groups rounds (HBP)
// however many groups, shards and workers take part. The descent narrows
// the parts' candidates in place, so a part ranks once. It records one
// aggregate, with the scalar parts' filter counters, unless nothing was
// scanned and nothing ranked.
func RankCtx(ctx context.Context, parts []RankPart, groups int, rankOf func(u uint64) (uint64, bool), o Options) (vals []uint64, oks []bool, err error) {
	vals, oks = make([]uint64, groups), make([]bool, groups)
	if len(parts) == 0 {
		return vals, oks, nil
	}
	d := &rankDescent{ctx: ctx, o: o}
	var start time.Time
	d.ws, start = o.statsBegin()
	if _, err := forEachRangeErr(ctx, len(parts), o.threads(), func(_, lo, hi int) error {
		for p := lo; p < hi; p++ {
			if parts[p].HP != nil {
				parts[p].cands = []*core.SegEntries{groupCandidates(parts[p])}
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var extra metrics.ExecStats
	nl := 0
	for p := range parts {
		nl += len(parts[p].cands)
	}
	d.lists, d.off = make([]rankList, 0, nl), make([]int, 1, nl+1)
	for p := range parts {
		for _, c := range parts[p].cands {
			d.lists = append(d.lists, rankList{part: &parts[p], c: c})
			d.off = append(d.off, d.off[len(d.off)-1]+c.NumRuns())
			extra.SegmentsAggregated += uint64(len(c.W))
		}
		extra = extra.Add(parts[p].rec)
	}

	// Every group's candidate count u — a scalar part's rows are its
	// group 0's — and wanted rank r.
	cnt := d.counters(groups)
	if err := d.pass(func(w int, l *rankList, lo, hi int) {
		if l.part.HP != nil {
			vps := l.part.Col.vps()
			cur := core.NewCursor(l.c, vps, vps, int(l.c.Segs[lo]), int(l.c.Segs[hi-1])+1, nil)
			core.HashCountRuns(&cur, l.part.Slot, cnt[w])
		}
	}); err != nil {
		return nil, nil, err
	}
	u, r := make([]uint64, groups), make([]uint64, groups)
	for p := range parts {
		if parts[p].HP == nil {
			u[0] += parts[p].rows
		}
	}
	var umax uint64
	for g := range u {
		for w := range cnt {
			u[g] += cnt[w][g]
		}
		if r[g], oks[g] = rankOf(u[g]); oks[g] && r[g] >= 1 && r[g] <= u[g] {
			umax = max(umax, u[g])
		} else {
			oks[g] = false
		}
	}
	if umax == 0 {
		if extra.Scans > 0 {
			extra.SegmentsAggregated = 0
			o.statsEnd(d.ws, start, extra)
		}
		return vals, oks, nil
	}

	if parts[0].Col.V != nil {
		err = d.vbp(u, r, oks, vals)
	} else {
		err = d.hbp(u, r, oks, vals, umax)
	}
	if err != nil {
		return nil, nil, err
	}
	extra.RadixRounds = d.rounds
	o.statsEnd(d.ws, start, extra)
	return vals, oks, nil
}

// groupCandidates is a grouped part's candidate list: the run list in the
// measure's windows without its NULL rows, owned by the descent, which
// narrows it in place. When the windows match and nothing is NULL it
// shares the partition's window and group arrays and copies only the
// words.
func groupCandidates(p RankPart) *core.SegEntries {
	if p.Col.vps() == p.HP.Vps && p.Col.Nulls == nil {
		c := *p.HP.se
		c.W = slices.Clone(c.W)
		return &c
	}
	cur := p.HP.cursor(p.Col, 0, p.Col.nseg())
	return cur.Collect()
}

// rankList is one candidate list of a part.
type rankList struct {
	part *RankPart
	c    *core.SegEntries
}

// rankDescent is one rank's working state: the candidate lists of every
// part, and where each list's runs start in the combined run range the
// workers split.
type rankDescent struct {
	ctx    context.Context
	o      Options
	ws     []metrics.ExecStats
	lists  []rankList
	off    []int
	rounds uint64
}

// counters returns one zeroed n-counter array per worker.
func (d *rankDescent) counters(n int) [][]uint64 {
	out := make([][]uint64, d.o.threads())
	for w := range out {
		out[w] = make([]uint64, n)
	}
	return out
}

// pass runs fn over every list's candidate runs, the lists' runs split
// across workers as one range; fn gets its list and that list's run range.
func (d *rankDescent) pass(fn func(w int, l *rankList, lo, hi int)) error {
	_, err := forEachRangeErr(d.ctx, d.off[len(d.lists)], d.o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(d.ws)
		for i := range d.lists {
			if a, b := max(lo, d.off[i]), min(hi, d.off[i+1]); a < b {
				fn(w, &d.lists[i], a-d.off[i], b-d.off[i])
			}
		}
		if d.ws != nil {
			busyOnly(d.ws, w, t0)
		}
		return nil
	})
	return err
}

// touched charges worker w's share of a round's analytic WordsTouched
// (DESIGN.md §8).
func (d *rankDescent) touched(w int, words uint64) {
	if d.ws != nil {
		d.ws[w].WordsTouched += words
	}
}

// vbp is Algorithm 3's loop for every group at once: per bit position, one
// pass counts each group's candidates with the bit set, every live group
// picks its bit against its own rank, and one pass narrows each entry by
// its group's bit. A round charges two words per live entry (count and
// refine).
func (d *rankDescent) vbp(u, r []uint64, live []bool, vals []uint64) error {
	k := d.lists[0].part.Col.V.K()
	cnt, ones := d.counters(len(u)), make([]bool, len(u))
	for p := 0; p < k; p++ {
		for w := range cnt {
			clear(cnt[w])
		}
		if err := d.pass(func(w int, l *rankList, lo, hi int) {
			d.touched(w, 2*core.VBPGroupRankCount(l.part.Col.V, l.c, l.part.Slot, p, lo, hi, cnt[w]))
		}); err != nil {
			return err
		}
		for g := range u {
			if !live[g] {
				continue
			}
			var c uint64
			for w := range cnt {
				c += cnt[w][g]
			}
			if ones[g] = u[g]-c < r[g]; ones[g] {
				vals[g] |= 1 << uint(k-1-p)
				r[g] -= u[g] - c
				u[g] = c
			} else {
				u[g] -= c
			}
		}
		d.rounds++
		if err := d.pass(func(_ int, l *rankList, lo, hi int) {
			core.VBPGroupRankRefine(l.part.Col.V, l.c, l.part.Slot, p, ones, lo, hi)
		}); err != nil {
			return err
		}
	}
	return nil
}

// hbp is Algorithm 6's loop for every group at once: per bit-group chunk,
// one pass builds each group's histogram, every live group locates the bin
// holding its rank, and (but after the last chunk) one pass narrows each
// entry to its group's bin. The chunk width suits the largest group and
// keeps all groups' bins within one descent's budget
// (core.HBPGroupRankChunks). A round charges each live sub-segment twice
// (histogram and refine), the last round once.
func (d *rankDescent) hbp(u, r []uint64, live []bool, vals []uint64, umax uint64) error {
	col := d.lists[0].part.Col.H
	chunks, hb := core.HBPGroupRankChunks(col.Tau(), umax, len(u))
	hist, bins := d.counters(len(u)<<uint(hb)), make([]uint64, len(u))
	for g, b := 0, col.NumGroups(); g < b; g++ {
		for ci, ch := range chunks {
			shift, width := ch[0], ch[1]
			last := g == b-1 && ci == len(chunks)-1
			factor := uint64(2)
			if last {
				factor = 1
			}
			for w := range hist {
				clear(hist[w][:len(u)<<uint(width)])
			}
			if err := d.pass(func(w int, l *rankList, lo, hi int) {
				d.touched(w, factor*core.HBPGroupHistogram(l.part.Col.H, l.c, l.part.Slot, g, shift, width, lo, hi, hist[w]))
			}); err != nil {
				return err
			}
			nbins := 1 << uint(width)
			for gi := range u {
				if !live[gi] {
					continue
				}
				var cum uint64
				bin := nbins - 1
				for i := 0; i < nbins; i++ {
					var h uint64
					for w := range hist {
						h += hist[w][gi<<uint(width)+i]
					}
					if cum+h >= r[gi] {
						bin = i
						break
					}
					cum += h
				}
				r[gi] -= cum
				vals[gi] = vals[gi]<<uint(width) | uint64(bin)
				bins[gi] = uint64(bin)
			}
			d.rounds++
			if last {
				break
			}
			if err := d.pass(func(_ int, l *rankList, lo, hi int) {
				core.HBPGroupRankRefine(l.part.Col.H, l.c, l.part.Slot, g, shift, width, bins, lo, hi)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
