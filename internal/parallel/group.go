package parallel

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// Single-pass grouped drivers (DESIGN.md §12). The partition driver
// splits the first grouping column's segments across workers; each worker
// runs core.Partition over its range, refines its own run list by every
// further grouping column (re-windowing it when the columns' segment sizes
// differ) and indexes the final keys into worker-local slots. The workers'
// lists then concatenate — their row ranges are disjoint and ascending —
// into one canonical run list in sorted-key group order, identical at any
// thread count. The banked drivers (SUM, MIN/MAX, COUNT(col), rank) split
// the measure column's windows across workers, each reading the list
// through a core.Cursor over its windows, so nothing is ever
// O(groups × segments).

// GroupCol is one grouping or measure column handed to the grouped
// drivers: exactly one of V and H is non-nil. Nulls marks a measure
// column's NULL rows (nil: none), which the banked drivers drop; a
// partition's base bitmap already excludes a grouping column's.
type GroupCol struct {
	V     *vbp.Column
	H     *hbp.Column
	Nulls *bitvec.Bitmap
}

func (c GroupCol) vps() int {
	if c.V != nil {
		return vbp.SegBits
	}
	return c.H.ValuesPerSegment()
}

func (c GroupCol) rows() int {
	if c.V != nil {
		return c.V.Len()
	}
	return c.H.Len()
}

func (c GroupCol) nseg() int {
	if c.V != nil {
		return c.V.NumSegments()
	}
	return c.H.NumSegments()
}

// Width returns the column's key width in bits (its packed-code shift
// metadata for composite keys).
func (c GroupCol) Width() int {
	if c.V != nil {
		return c.V.K()
	}
	return c.H.K()
}

// HashPartition is the result of a grouped partition: the sorted packed
// keys, per-group row counts, and the canonical run list the banked
// aggregate kernels consume. Vps is the window size of the canonical
// entries (the last grouping column's segmentation); a measure column of
// another window size reads them through a cursor that re-cuts them as it
// goes. The key-major view behind Materialize is built on its first call,
// under a lock, so concurrent aggregates over one partition are safe.
type HashPartition struct {
	Keys   []uint64
	Counts []uint64
	N      int
	Vps    int

	se *core.SegEntries

	mu     sync.Mutex
	gStart []int32 // key-major view: group i's windows are gSeg/gW[gStart[i]:gStart[i+1]]
	gSeg   []int32
	gW     []uint64
}

// partWorker is one worker's partition state: the run list under
// refinement (packed keys), the indexed list its last step emits, and the
// index that assigns the slots.
type partWorker struct {
	rows  int // selected rows of the worker's range: the cap on any step's entries
	keyed *core.Runs[uint64]
	slots *core.SegEntries
	idx   *core.KeyIndex
	st    core.GroupStats
	busy  int64
}

// VBPGroupPartitionCtx partitions the filter by one VBP grouping column.
func VBPGroupPartitionCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) ([]uint64, *HashPartition, error) {
	return keysOf(HashGroupPartitionCtx(ctx, []GroupCol{{V: col}}, f, col.Len(), core.MaxHashGroups, o))
}

// HBPGroupPartitionCtx is the HBP twin of VBPGroupPartitionCtx.
func HBPGroupPartitionCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) ([]uint64, *HashPartition, error) {
	return keysOf(HashGroupPartitionCtx(ctx, []GroupCol{{H: col}}, f, col.Len(), core.MaxHashGroups, o))
}

func keysOf(hp *HashPartition, err error) ([]uint64, *HashPartition, error) {
	if err != nil {
		return nil, nil, err
	}
	return hp.Keys, hp, nil
}

// HashGroupPartitionCtx partitions the filter across the packed keys of
// one or more grouping columns in one traversal, or returns
// core.ErrGroupCardinality past limit distinct keys. n is the table's row
// count; limit is core.MaxHashGroups in production (tests pass tiny
// budgets to reach the error). The columns' summed width picks the key
// index, the pipeline's only width-dependent part.
func HashGroupPartitionCtx(ctx context.Context, cols []GroupCol, f *bitvec.Bitmap, n, limit int, o Options) (*HashPartition, error) {
	width := 0
	for _, c := range cols {
		width += c.Width()
	}
	return groupPartition(ctx, cols, f, n, limit, width, o)
}

// groupPartition is the one partition driver; indexBits is the key width
// handed to core.NewKeyIndex (tests widen it to force open addressing on
// narrow keys).
func groupPartition(ctx context.Context, cols []GroupCol, f *bitvec.Bitmap, n, limit, indexBits int, o Options) (*HashPartition, error) {
	var start time.Time
	if o.Stats != nil {
		start = time.Now()
	}
	nseg, vps, last := cols[0].nseg(), cols[0].vps(), len(cols)-1
	sp := core.NewSplitter(cols[0].V, cols[0].H)
	parts := partition(nseg, o.threads())
	ws := make([]partWorker, len(parts))
	// open sizes worker w's output for a step over grouping column sp:
	// the indexed list when the step is the last, packed keys otherwise.
	open := func(w *partWorker, sp *core.Splitter, runs, srcEntries int, final bool) {
		if final {
			w.slots = core.NewStepRuns[int32](sp, runs, srcEntries, w.rows)
		} else {
			w.keyed = core.NewStepRuns[uint64](sp, runs, srcEntries, w.rows)
		}
	}
	for i, p := range parts {
		w := &ws[i]
		w.rows = f.Rank(p[1]*vps) - f.Rank(p[0]*vps)
		w.idx = core.NewKeyIndex(indexBits, limit)
		open(w, sp, p[1]-p[0], p[1]-p[0], last == 0)
	}
	// step runs the column over segments [lo, hi) of the first column, or
	// over the windows src yields after it, into that output, on the clock
	// of worker w.
	step := func(w *partWorker, sp *core.Splitter, src *core.Cursor[uint64], lo, hi int, final bool) (err error) {
		var t0 time.Time
		if o.Stats != nil {
			t0 = time.Now()
		}
		if final {
			err = core.Partition(sp, f, src, lo, hi, w.idx.Slot, w.slots, &w.st)
		} else {
			err = core.Partition(sp, f, src, lo, hi, core.PackedKey, w.keyed, &w.st)
		}
		if o.Stats != nil {
			w.busy += time.Since(t0).Nanoseconds()
		}
		return err
	}
	if _, err := forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
		return step(&ws[w], sp, nil, lo, hi, last == 0)
	}); err != nil {
		return nil, err
	}

	// Composite refinement: each worker refines its own run list by the
	// next column, read in that column's windows, keeping the disjoint-rows
	// invariant.
	for ci := 1; ci <= last; ci++ {
		sp := core.NewSplitter(cols[ci].V, cols[ci].H)
		if _, err := forEachRangeErr(ctx, len(ws), len(ws), func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				w := &ws[i]
				src := core.NewCursor(w.keyed, vps, cols[ci].vps(), 0, cols[ci].nseg(), nil)
				runs, entries := src.Count()
				open(w, sp, runs, entries, ci == last)
				if err := step(w, sp, &src, 0, 0, ci == last); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		vps = cols[ci].vps()
	}

	// Union the per-worker key sets, sorted ascending — the group order
	// that keeps results bit-identical across thread counts.
	var keys []uint64
	for i := range ws {
		keys = append(keys, ws[i].idx.Keys...)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) > limit {
		return nil, core.ErrGroupCardinality
	}

	// Remap every worker's slots to group indexes, tallying the counts and
	// putting each run in ascending group order on the way (a run holds
	// ≤ 64 entries, and comes out of a VBP split already sorted), then
	// concatenate the lists; a window two workers share after re-windowing
	// merges.
	hp := &HashPartition{Keys: keys, Counts: make([]uint64, len(keys)), N: n, Vps: vps, se: ws[0].slots}
	var runs, entries int
	for i := range ws {
		w, s := &ws[i], ws[i].slots
		gi := make([]int32, len(w.idx.Keys))
		for slot, key := range w.idx.Keys {
			g, _ := slices.BinarySearch(keys, key)
			gi[slot] = int32(g)
		}
		for r := range s.Segs {
			for e := s.Start[r]; e < s.Start[r+1]; e++ {
				g := gi[s.ID[e]]
				s.ID[e] = g
				hp.Counts[g] += uint64(bits.OnesCount64(s.W[e]))
			}
			s.SortRun(r)
		}
		runs += s.NumRuns()
		entries += len(s.ID)
	}
	if len(ws) > 1 {
		hp.se = core.NewRuns[int32](runs, entries)
		for i := range ws {
			s := ws[i].slots
			for r, seg := range s.Segs {
				hp.se.Merge(seg, s.ID[s.Start[r]:s.Start[r+1]], s.W[s.Start[r]:s.Start[r+1]])
				if r == 0 {
					hp.se.SortRun(hp.se.NumRuns() - 1)
				}
			}
		}
	}

	if o.Stats != nil {
		rec := metrics.ExecStats{
			Scans:            1,
			GroupsDiscovered: uint64(len(keys)),
			GroupBankWords:   uint64(len(hp.se.ID)),
			ScanNanos:        time.Since(start).Nanoseconds(),
		}
		for i := range ws {
			w := &ws[i]
			rec.SegmentsScanned += w.st.Segments
			rec.SegmentsCacheServed += w.st.CacheServed
			rec.WordsCompared += w.st.Words
			rec.HashProbes += w.idx.Probes
			rec.HashGrowths += w.idx.Growths
			rec.WorkerBusyNanos += w.busy
		}
		o.Stats.Record(rec)
	}
	return hp, nil
}

// cursor reads the run list in col's windows [lo, hi), without col's NULL
// rows.
func (hp *HashPartition) cursor(col GroupCol, lo, hi int) core.Cursor[int32] {
	return core.NewCursor(hp.se, hp.Vps, col.vps(), lo, hi, col.Nulls)
}

// Materialize builds group i's dense selection bitmap, a fresh one per
// call, from its banked words. Selections stay sparse — 10^5 dense bitmaps
// is a memory wall — and no aggregate needs one: this serves callers that
// ask for a group's rows. The first call transposes the run list into its
// key-major view.
func (hp *HashPartition) Materialize(i int) *bitvec.Bitmap {
	hp.mu.Lock()
	if hp.gStart == nil {
		se := hp.se
		hp.gStart = make([]int32, len(hp.Keys)+1)
		for _, g := range se.ID {
			hp.gStart[g+1]++
		}
		for g := range hp.Keys {
			hp.gStart[g+1] += hp.gStart[g]
		}
		hp.gSeg, hp.gW = make([]int32, len(se.ID)), make([]uint64, len(se.ID))
		pos := slices.Clone(hp.gStart)
		for r, seg := range se.Segs {
			for e := se.Start[r]; e < se.Start[r+1]; e++ {
				p := pos[se.ID[e]]
				hp.gSeg[p], hp.gW[p] = seg, se.W[e]
				pos[se.ID[e]]++
			}
		}
	}
	hp.mu.Unlock()
	bm := bitvec.New(hp.N)
	for e := hp.gStart[i]; e < hp.gStart[i+1]; e++ {
		if hp.Vps == 64 {
			bm.SetWord(int(hp.gSeg[e]), hp.gW[e])
		} else {
			bm.Deposit(int(hp.gSeg[e])*hp.Vps, hp.Vps, hp.gW[e])
		}
	}
	return bm
}

// groupStatsExtra folds worker GroupStats into the driver-level extra
// batch merged by statsEnd.
func groupStatsExtra(gsts []core.GroupStats) metrics.ExecStats {
	var gs core.GroupStats
	for i := range gsts {
		gs = gs.Add(gsts[i])
	}
	return metrics.ExecStats{
		SegmentsAggregated:  gs.Segments,
		WordsTouched:        gs.Words,
		SegmentsCacheServed: gs.CacheServed,
	}
}

// HashGroupSumCtx computes the 128-bit SUM of every group in one pass
// over the measure column, indexed like Keys; hi != 0 marks a uint64
// overflow the caller surfaces. Workers split the measure's windows;
// partials merge in ascending worker order.
func HashGroupSumCtx(ctx context.Context, col GroupCol, hp *HashPartition, o Options) ([]uint64, []uint64, error) {
	nG := len(hp.Keys)
	ws, start := o.statsBegin()
	parts := partition(col.nseg(), o.threads())
	his := make([][]uint64, len(parts))
	los := make([][]uint64, len(parts))
	gsts := make([]core.GroupStats, len(parts))
	for w := range parts {
		his[w] = make([]uint64, nG)
		los[w] = make([]uint64, nG)
	}
	if _, err := forEachRangeErr(ctx, col.nseg(), o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cur := hp.cursor(col, lo, hi)
		if col.V != nil {
			core.VBPHashSumRuns(col.V, &cur, his[w], los[w], &gsts[w])
		} else {
			core.HBPHashSumRuns(col.H, &cur, his[w], los[w], &gsts[w])
		}
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for w := 1; w < len(parts); w++ {
		core.Add128Pairs(his[0], los[0], his[w], los[w])
	}
	o.statsEnd(ws, start, groupStatsExtra(gsts))
	return his[0], los[0], nil
}

// HashGroupExtremeCtx computes MIN (or MAX) of every group in one pass
// over the measure column. anys[i] is false only for a group whose rows
// are all NULL in the column.
func HashGroupExtremeCtx(ctx context.Context, col GroupCol, hp *HashPartition, wantMin bool, o Options) ([]uint64, []bool, error) {
	nG := len(hp.Keys)
	ws, start := o.statsBegin()
	parts := partition(col.nseg(), o.threads())
	bests := make([][]uint64, len(parts))
	anys := make([][]bool, len(parts))
	gsts := make([]core.GroupStats, len(parts))
	for w := range parts {
		bests[w] = make([]uint64, nG)
		anys[w] = make([]bool, nG)
	}
	if _, err := forEachRangeErr(ctx, col.nseg(), o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cur := hp.cursor(col, lo, hi)
		if col.V != nil {
			core.VBPHashExtremeRuns(col.V, &cur, wantMin, bests[w], anys[w], &gsts[w])
		} else {
			core.HBPHashExtremeRuns(col.H, &cur, wantMin, bests[w], anys[w], &gsts[w])
		}
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for w := 1; w < len(parts); w++ {
		for gi := range bests[0] {
			if !anys[w][gi] {
				continue
			}
			v := bests[w][gi]
			if !anys[0][gi] || wantMin && v < bests[0][gi] || !wantMin && v > bests[0][gi] {
				bests[0][gi] = v
			}
			anys[0][gi] = true
		}
	}
	o.statsEnd(ws, start, groupStatsExtra(gsts))
	return bests[0], anys[0], nil
}

// HashGroupCountCtx counts every group's rows on which col is not NULL —
// COUNT(col) per group and AVG's divisor. It reads the run list and the
// NULL bitmap only, never a packed word, so like the partition's Counts it
// records nothing.
func HashGroupCountCtx(ctx context.Context, col GroupCol, hp *HashPartition, o Options) ([]uint64, error) {
	parts := partition(col.nseg(), o.threads())
	counts := make([][]uint64, len(parts))
	for w := range parts {
		counts[w] = make([]uint64, len(hp.Keys))
	}
	if _, err := forEachRangeErr(ctx, col.nseg(), o.threads(), func(w, lo, hi int) error {
		cur := hp.cursor(col, lo, hi)
		core.HashCountRuns(&cur, nil, counts[w])
		return nil
	}); err != nil {
		return nil, err
	}
	for w := 1; w < len(parts); w++ {
		for gi, c := range counts[w] {
			counts[0][gi] += c
		}
	}
	return counts[0], nil
}
