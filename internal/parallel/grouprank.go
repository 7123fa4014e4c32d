package parallel

import (
	"context"
	"slices"
	"time"

	"bpagg/internal/core"
	"bpagg/internal/metrics"
)

// RankPart is one partition's share of a grouped rank: the partition, the
// measure column of its table (its NULL rows in Col.Nulls), and Slot,
// which maps the partition's group indexes to result groups (nil: the
// same index). A flat GROUP BY is one part; a sharded one has one part per
// live shard, every part's column of one layout and width.
type RankPart struct {
	Col  GroupCol
	HP   *HashPartition
	Slot []int32
}

// HashGroupRankCtx answers one order statistic for each of groups result
// groups in one radix descent over every part at once (DESIGN.md §12):
// Algorithm 3's loop on VBP, Algorithm 6's on HBP, with one counter (VBP)
// or one histogram (HBP) per group. rankOf maps a group's non-NULL count
// to the 1-based rank it wants; a group it refuses reports ok[i] = false.
// Each round is one rendezvous — the per-group counts summed over workers
// and parts, ctx checked, every group's bit or bin decided and pushed back
// — so the descent takes k rounds (VBP) or chunks × bit-groups rounds
// (HBP) however many groups and shards take part.
func HashGroupRankCtx(ctx context.Context, parts []RankPart, groups int, rankOf func(u uint64) (uint64, bool), o Options) (vals []uint64, oks []bool, err error) {
	vals, oks = make([]uint64, groups), make([]bool, groups)
	if len(parts) == 0 {
		return vals, oks, nil
	}
	d := &rankDescent{ctx: ctx, o: o, parts: parts, cands: make([]*core.SegEntries, len(parts)), off: make([]int, len(parts)+1)}
	var start time.Time
	d.ws, start = o.statsBegin()
	if _, err := forEachRangeErr(ctx, len(parts), o.threads(), func(_, lo, hi int) error {
		for p := lo; p < hi; p++ {
			d.cands[p] = rankCandidates(parts[p])
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var entries uint64
	for p, c := range d.cands {
		d.off[p+1] = d.off[p] + c.NumRuns()
		entries += uint64(len(c.ID))
	}

	// Every group's candidate count u and wanted rank r. A cursor over the
	// windows of runs [lo, hi) of a candidate list yields those runs.
	cnt := d.counters(groups)
	if err := d.pass(func(w, p, lo, hi int) {
		c, vps := d.cands[p], parts[p].Col.vps()
		cur := core.NewCursor(c, vps, vps, int(c.Segs[lo]), int(c.Segs[hi-1])+1, nil)
		core.HashCountRuns(&cur, parts[p].Slot, cnt[w])
	}); err != nil {
		return nil, nil, err
	}
	u, r := make([]uint64, groups), make([]uint64, groups)
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
	o.statsEnd(d.ws, start, metrics.ExecStats{SegmentsAggregated: entries, RadixRounds: d.rounds})
	return vals, oks, nil
}

// rankCandidates is a part's candidate list: the run list in the measure's
// windows without its NULL rows, owned by the descent, which narrows it in
// place. When the windows match and nothing is NULL it shares the
// partition's window and group arrays and copies only the words.
func rankCandidates(p RankPart) *core.SegEntries {
	if p.Col.vps() == p.HP.Vps && p.Col.Nulls == nil {
		c := *p.HP.se
		c.W = slices.Clone(c.W)
		return &c
	}
	cur := p.HP.cursor(p.Col, 0, p.Col.nseg())
	return cur.Collect()
}

// rankDescent is one grouped rank's working state: the parts, their
// candidate lists, and where each part's runs start in the combined run
// range the workers split.
type rankDescent struct {
	ctx    context.Context
	o      Options
	ws     []metrics.ExecStats
	parts  []RankPart
	cands  []*core.SegEntries
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

// pass runs fn over every part's candidate runs, the parts' runs split
// across workers as one range; fn gets its part and that part's run range.
func (d *rankDescent) pass(fn func(w, p, lo, hi int)) error {
	_, err := forEachRangeErr(d.ctx, d.off[len(d.parts)], d.o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(d.ws)
		for p := range d.parts {
			if a, b := max(lo, d.off[p]), min(hi, d.off[p+1]); a < b {
				fn(w, p, a-d.off[p], b-d.off[p])
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
// its group's bit. Like vbpDescend, a round charges two words per live
// entry (count and refine).
func (d *rankDescent) vbp(u, r []uint64, live []bool, vals []uint64) error {
	k := d.parts[0].Col.V.K()
	cnt, ones := d.counters(len(u)), make([]bool, len(u))
	for p := 0; p < k; p++ {
		for w := range cnt {
			clear(cnt[w])
		}
		if err := d.pass(func(w, pi, lo, hi int) {
			part := &d.parts[pi]
			d.touched(w, 2*core.VBPGroupRankCount(part.Col.V, d.cands[pi], part.Slot, p, lo, hi, cnt[w]))
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
		if err := d.pass(func(_, pi, lo, hi int) {
			part := &d.parts[pi]
			core.VBPGroupRankRefine(part.Col.V, d.cands[pi], part.Slot, p, ones, lo, hi)
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
// (core.HBPGroupRankChunks). Like hbpDescend, a round charges each live
// sub-segment twice, the last round once.
func (d *rankDescent) hbp(u, r []uint64, live []bool, vals []uint64, umax uint64) error {
	col := d.parts[0].Col.H
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
			if err := d.pass(func(w, pi, lo, hi int) {
				part := &d.parts[pi]
				d.touched(w, factor*core.HBPGroupHistogram(part.Col.H, d.cands[pi], part.Slot, g, shift, width, lo, hi, hist[w]))
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
			if err := d.pass(func(_, pi, lo, hi int) {
				part := &d.parts[pi]
				core.HBPGroupRankRefine(part.Col.H, d.cands[pi], part.Slot, g, shift, width, bins, lo, hi)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
