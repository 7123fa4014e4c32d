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

// Grouped drivers (DESIGN.md §12). GroupPassCtx is the one partition
// driver: one pass per worker over whole chunks of the table, folding the
// named measures into per-group banks as each chunk's entries are emitted,
// and keeping the canonical run list only when a rank or Materialize needs
// it. The kept-list drivers (SUM, MIN/MAX, COUNT(col) here, the rank in
// rank.go) split the measure column's windows across workers, each reading
// the list through a core.Cursor over its windows, so nothing is ever
// O(groups × segments).

// GroupCol is one grouping or measure column handed to the grouped
// drivers: exactly one of V and H is non-nil. Nulls marks a measure
// column's NULL rows (nil: none), which the banked drivers drop; a pass's
// filter already excludes a grouping column's.
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

// HashPartition is the result of a grouped pass: the sorted packed keys,
// per-group row counts, the banks of the measures the pass named, and —
// when the pass kept it — the canonical run list the rank descent and
// Materialize read. Vps is the window size of the list's entries (the
// last grouping column's segmentation); a measure column of another
// window size reads them through a cursor that re-cuts them as it goes.
// The key-major view behind Materialize is built on its first call, under
// a lock, so concurrent aggregates over one partition are safe.
type HashPartition struct {
	Keys   []uint64
	Counts []uint64
	N      int
	Vps    int
	// Banks holds every measure of the pass in group order, parallel to
	// GroupPass.Measures.
	Banks []*Bank

	se *core.SegEntries // the kept run list; nil when the pass kept none

	mu     sync.Mutex
	gStart []int32 // key-major view: group i's windows are gSeg/gW[gStart[i]:gStart[i+1]]
	gSeg   []int32
	gW     []uint64
}

// MeasureOp names an aggregate a grouped pass banks per group.
type MeasureOp uint8

const (
	MeasureSum   MeasureOp = iota // 128-bit SUM, in Bank.His and Bank.Los
	MeasureMin                    // MIN, in Bank.Best and Bank.Any
	MeasureMax                    // MAX, in Bank.Best and Bank.Any
	MeasureCount                  // COUNT(col), the rows not NULL in the column, in Bank.Count
)

// Measure is one aggregate a grouped pass folds into its bank as it
// emits each chunk's entries.
type Measure struct {
	Col GroupCol
	Op  MeasureOp
}

// Bank is one measure's per-group partials: slot-indexed while a worker
// fills it, in group order once the pass (or a kept-list driver) has
// folded its workers' banks. Any[i] is false for a group whose rows are
// all NULL in the measure column.
type Bank struct {
	His, Los []uint64
	Best     []uint64
	Any      []bool
	Count    []uint64

	m   Measure
	k   *core.HashKernel // built on the first step, once per worker and measure
	cur core.Cursor[int32]
	st  core.GroupStats
}

// newBank returns measure m's bank for n groups.
func newBank(m Measure, n int) *Bank {
	b := &Bank{m: m}
	b.grow(n)
	return b
}

// grow zero-extends the bank to n groups.
func (b *Bank) grow(n int) {
	switch b.m.Op {
	case MeasureSum:
		b.His, b.Los = extend(b.His, n), extend(b.Los, n)
	case MeasureCount:
		b.Count = extend(b.Count, n)
	default:
		b.Best, b.Any = extend(b.Best, n), extend(b.Any, n)
	}
}

// extend zero-extends s to exactly n elements: per-slot state grows to
// the key index's capacity, which doubles, so nothing overshoots it.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	t := make([]T, n)
	copy(t, s)
	return t
}

// step runs the measure's kernel over windows [lo, hi) of its column,
// reading list se, whose windows hold vps rows, without the column's NULL
// rows. The bank's ids are se's.
func (b *Bank) step(se *core.SegEntries, vps, lo, hi int) {
	b.cur = core.NewCursor(se, vps, b.m.Col.vps(), lo, hi, b.m.Col.Nulls)
	if b.k == nil && b.m.Op != MeasureCount {
		b.k = core.NewHashKernel(b.m.Col.V, b.m.Col.H)
	}
	switch b.m.Op {
	case MeasureSum:
		b.k.Sum(&b.cur, b.His, b.Los, &b.st)
	case MeasureCount:
		core.HashCountRuns(&b.cur, nil, b.Count)
	default:
		b.k.Extreme(&b.cur, b.m.Op == MeasureMin, b.Best, b.Any, &b.st)
	}
}

// fold merges the first len(gi) ids of worker bank w into b, id s landing
// on gi[s]: a 128-bit add, an extreme fold or a count add.
func (b *Bank) fold(w *Bank, gi []int32) {
	switch b.m.Op {
	case MeasureSum:
		for s, g := range gi {
			lo, carry := bits.Add64(b.Los[g], w.Los[s], 0)
			b.His[g] += w.His[s] + carry
			b.Los[g] = lo
		}
	case MeasureCount:
		for s, g := range gi {
			b.Count[g] += w.Count[s]
		}
	default:
		wantMin := b.m.Op == MeasureMin
		for s, g := range gi {
			if !w.Any[s] {
				continue
			}
			v := w.Best[s]
			if !b.Any[g] || wantMin && v < b.Best[g] || !wantMin && v > b.Best[g] {
				b.Best[g] = v
			}
			b.Any[g] = true
		}
	}
	b.st = b.st.Add(w.st)
}

// extra is the bank's work in the ExecStats schema.
func (b *Bank) extra() metrics.ExecStats {
	return metrics.ExecStats{
		SegmentsAggregated:  b.st.Segments,
		WordsTouched:        b.st.Words,
		SegmentsCacheServed: b.st.CacheServed,
	}
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

// HashGroupPartitionCtx partitions bitmap f across the packed keys of one
// or more grouping columns and keeps the run list: the pass with no
// measure. n is the table's row count; limit is core.MaxHashGroups in
// production (tests pass tiny budgets to reach core.ErrGroupCardinality).
func HashGroupPartitionCtx(ctx context.Context, cols []GroupCol, f *bitvec.Bitmap, n, limit int, o Options) (*HashPartition, error) {
	return GroupPassCtx(ctx, GroupPass{Cols: cols, N: n, Limit: limit, Keep: f}, o)
}

// GroupPass is one grouped pass: what to group, by what, and what to
// fold on the way.
type GroupPass struct {
	// Cols are the grouping columns, the first one's code in the key's
	// high bits; their summed width picks the key index.
	Cols []GroupCol
	// Filter selects the rows to group, in the first column's windows. It
	// must not select a row NULL in a grouping column.
	Filter core.Filter
	// Keep, when set, is the filter as a bitmap, read in place of Filter,
	// and the pass keeps the run list (for a rank or Materialize), sized
	// exactly from it.
	Keep *bitvec.Bitmap
	// N is the table's row count and Limit the key budget: past it the
	// pass returns core.ErrGroupCardinality and no partial result.
	N, Limit int
	// Measures are banked at emit, into HashPartition.Banks.
	Measures []Measure
	// Chunk is the least rows of a chunk (0: defaultChunkRows). Tests set
	// 1, which leaves one least common multiple of the window widths.
	Chunk int

	indexBits int // the key width handed to core.NewKeyIndex; 0: the columns' summed width
}

// defaultChunkRows is the least rows of a chunk: enough windows that the
// per-chunk calls amortize, few enough that the scratch stays in cache.
const defaultChunkRows = 4096

// chunkRows is the pass's chunk: the least common multiple of every
// grouping and measure column's window width, rounded up to p.Chunk rows.
func (p *GroupPass) chunkRows() int {
	l := 1
	lcm := func(c GroupCol) {
		a, b := l, c.vps()
		for b != 0 {
			a, b = b, a%b
		}
		l = l / a * c.vps()
	}
	for _, c := range p.Cols {
		lcm(c)
	}
	for _, m := range p.Measures {
		lcm(m.Col)
	}
	least := p.Chunk
	if least <= 0 {
		least = defaultChunkRows
	}
	return (least + l - 1) / l * l
}

// passWorker is one worker's state: its key index and slot tallies, the
// chunk scratch of every refine step, the last step's output (chunk
// scratch, or the worker's share of a kept list) and its measure banks.
type passWorker struct {
	idx     *core.KeyIndex
	slot    func(uint64) (int32, bool)
	keyed   []core.Runs[uint64]
	out     *core.SegEntries
	cur     *core.Cursor[uint64] // a composite key's refine steps' reader
	counts  []uint64
	banks   []*Bank
	emitted int
	st      core.GroupStats
	fst     core.FusedStats
	busy    int64
}

// GroupPassCtx runs a grouped pass (DESIGN.md §12), one per worker over
// whole chunks: a chunk is a whole number of windows of every grouping and
// measure column, so no window is split between two chunks or two workers
// and the counters do not depend on the thread count. Per chunk the worker
// splits the filter words of the first grouping column (core.Partition),
// refines them by every further column, indexes the final keys into its
// own slots, tallies COUNT(*) per slot and folds every measure into its
// bank through the measure's kernel, all in reused chunk scratch; only
// with Keep are the chunk's entries appended to a table-sized list. The
// workers' keys then union in sorted order, and one remap folds their
// tallies, banks and lists into group order in ascending worker order:
// results are identical at any thread count.
func GroupPassCtx(ctx context.Context, p GroupPass, o Options) (*HashPartition, error) {
	var start time.Time
	if o.Stats != nil {
		start = time.Now()
	}
	if p.Keep != nil {
		p.Filter = core.Bits(p.Keep)
	}
	indexBits := p.indexBits
	if indexBits == 0 {
		for _, c := range p.Cols {
			indexBits += c.Width()
		}
	}
	last := len(p.Cols) - 1
	sps := make([]*core.Splitter, len(p.Cols))
	for i, c := range p.Cols {
		sps[i] = core.NewSplitter(c.V, c.H)
	}
	rows := p.chunkRows()
	nch := (p.N + rows - 1) / rows
	parts := partition(nch, o.threads())
	ws := make([]passWorker, len(parts))
	lastVps := p.Cols[last].vps()
	for i, pr := range parts {
		w := &ws[i]
		w.idx = core.NewKeyIndex(indexBits, p.Limit)
		w.slot = w.idx.Slot
		w.keyed, w.out = make([]core.Runs[uint64], last), new(core.SegEntries)
		if last > 0 {
			w.cur = new(core.Cursor[uint64])
		}
		if p.Keep != nil {
			r0, r1 := pr[0]*rows, min(pr[1]*rows, p.N)
			windows := (r1+lastVps-1)/lastVps - r0/lastVps
			w.out = core.NewStepRuns[int32](windows, p.Keep.Rank(r1)-p.Keep.Rank(r0), sps...)
		}
		w.banks = make([]*Bank, len(p.Measures))
		for j, m := range p.Measures {
			w.banks[j] = newBank(m, 0)
		}
	}
	if _, err := forEachRangeErr(ctx, nch, o.threads(), func(wi, lo, hi int) error {
		w := &ws[wi]
		var t0 time.Time
		if o.Stats != nil {
			t0 = time.Now()
		}
		for c := lo; c < hi; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := p.chunk(w, sps, c*rows, min((c+1)*rows, p.N)); err != nil {
				return err
			}
		}
		if o.Stats != nil {
			w.busy += time.Since(t0).Nanoseconds()
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Union the per-worker key sets, sorted ascending — the group order
	// that keeps results bit-identical across thread counts.
	var keys []uint64
	for i := range ws {
		keys = append(keys, ws[i].idx.Keys...)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) > p.Limit {
		return nil, core.ErrGroupCardinality
	}

	// Remap every worker's slots to group indexes, folding its tallies and
	// banks in ascending worker order and putting each kept run in
	// ascending group order (a run holds ≤ 64 entries, and comes out of a
	// VBP split already sorted).
	hp := &HashPartition{Keys: keys, Counts: make([]uint64, len(keys)), N: p.N, Vps: lastVps, Banks: make([]*Bank, len(p.Measures))}
	for j, m := range p.Measures {
		hp.Banks[j] = newBank(m, len(keys))
	}
	emitted, runs := 0, 0
	for i := range ws {
		w := &ws[i]
		gi := make([]int32, len(w.idx.Keys))
		for slot, key := range w.idx.Keys {
			g, _ := slices.BinarySearch(keys, key)
			gi[slot] = int32(g)
			hp.Counts[g] += w.counts[slot]
		}
		for j, b := range w.banks {
			hp.Banks[j].fold(b, gi)
		}
		emitted += w.emitted
		if p.Keep != nil {
			s := w.out
			for e, id := range s.ID {
				s.ID[e] = gi[id]
			}
			for r := range s.Segs {
				s.SortRun(r)
			}
			runs += s.NumRuns()
		}
	}
	// Concatenate the kept lists: worker ranges are whole chunks, so no
	// window spans two of them.
	if p.Keep != nil {
		hp.se = ws[0].out
		if len(ws) > 1 {
			hp.se = core.NewRuns[int32](runs, emitted)
			for i := range ws {
				hp.se.Append(ws[i].out)
			}
		}
	}

	if o.Stats != nil {
		rec := metrics.ExecStats{
			Scans:            1 + uint64(p.Filter.Scans()),
			GroupsDiscovered: uint64(len(keys)),
			GroupBankWords:   uint64(emitted),
			ScanNanos:        time.Since(start).Nanoseconds(),
		}
		for i := range ws {
			w := &ws[i]
			rec.SegmentsScanned += w.st.Segments + w.fst.SegmentsScanned
			rec.SegmentsPrunedNone += w.fst.SegmentsPrunedNone
			rec.SegmentsPrunedAll += w.fst.SegmentsPrunedAll
			rec.SegmentsCacheServed += w.st.CacheServed
			rec.WordsCompared += w.st.Words + w.fst.WordsCompared
			rec.HashProbes += w.idx.Probes
			rec.HashGrowths += w.idx.Growths
			rec.WorkerBusyNanos += w.busy
		}
		o.Stats.Record(rec)
		// Each SUM/MIN/MAX is one aggregate, as over a kept list; COUNT(col)
		// reads no packed word and records nothing. The pass's wall time is
		// its ScanNanos.
		for _, b := range hp.Banks {
			if b.m.Op != MeasureCount {
				rec := b.extra()
				rec.Aggregates = 1
				o.Stats.Record(rec)
			}
		}
	}
	return hp, nil
}

// chunk runs the pass over rows [r0, r1) on worker w: the partition steps
// into its scratch (or its kept list), then the COUNT(*) tallies and every
// measure over the chunk's entries.
func (p *GroupPass) chunk(w *passWorker, sps []*core.Splitter, r0, r1 int) error {
	last := len(p.Cols) - 1
	out, mark := w.out, 0
	if p.Keep != nil {
		mark = out.NumRuns()
	} else {
		out.Reset()
	}
	var src *core.Cursor[uint64]
	var prev *core.Runs[uint64]
	prevVps := 0
	for ci, c := range p.Cols {
		vps := c.vps()
		lo, hi := r0/vps, (r1+vps-1)/vps
		if ci > 0 {
			*w.cur = core.NewCursor(prev, prevVps, vps, lo, hi, nil)
			src = w.cur
		}
		var err error
		if ci == last {
			err = core.Partition(sps[ci], p.Filter, src, lo, hi, w.slot, out, &w.st, &w.fst)
		} else {
			prev = &w.keyed[ci]
			prev.Reset()
			err = core.Partition(sps[ci], p.Filter, src, lo, hi, core.PackedKey, prev, &w.st, &w.fst)
		}
		if err != nil {
			return err
		}
		prevVps = vps
	}
	// The tallies and banks grow with the index: to its whole key space
	// when direct, doubling with its table when hashed.
	slots := w.idx.Cap()
	w.counts = extend(w.counts, slots)
	e0 := int(out.Start[mark])
	for e := e0; e < len(out.ID); e++ {
		w.counts[out.ID[e]] += uint64(bits.OnesCount64(out.W[e]))
	}
	w.emitted += len(out.ID) - e0
	for _, b := range w.banks {
		b.grow(slots)
		mv := b.m.Col.vps()
		b.step(out, prevVps, r0/mv, (r1+mv-1)/mv)
	}
	return nil
}

// cursor reads the run list in col's windows [lo, hi), without col's NULL
// rows.
func (hp *HashPartition) cursor(col GroupCol, lo, hi int) core.Cursor[int32] {
	return core.NewCursor(hp.se, hp.Vps, col.vps(), lo, hi, col.Nulls)
}

// Bank returns the pass's bank of measure m; nil when it banked none.
func (hp *HashPartition) Bank(m Measure) *Bank {
	if i := slices.IndexFunc(hp.Banks, func(b *Bank) bool { return b.m == m }); i >= 0 {
		return hp.Banks[i]
	}
	return nil
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

// BankCtx runs measure m over the kept run list: workers split the
// measure column's windows, each into its own bank, and the banks fold in
// ascending worker order. A SUM/MIN/MAX records one aggregate; COUNT(col)
// reads the run list and the NULL bitmap only, never a packed word, so
// like the partition's Counts it records nothing.
func BankCtx(ctx context.Context, m Measure, hp *HashPartition, o Options) (*Bank, error) {
	ws, start := o.statsBegin()
	parts := partition(m.Col.nseg(), o.threads())
	banks := make([]*Bank, len(parts))
	for w := range banks {
		banks[w] = newBank(m, len(hp.Keys))
	}
	if _, err := forEachRangeErr(ctx, m.Col.nseg(), o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		banks[w].step(hp.se, hp.Vps, lo, hi)
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if len(banks) > 1 {
		id := make([]int32, len(hp.Keys))
		for g := range id {
			id[g] = int32(g)
		}
		for _, b := range banks[1:] {
			banks[0].fold(b, id)
		}
	}
	if m.Op != MeasureCount {
		o.statsEnd(ws, start, banks[0].extra())
	}
	return banks[0], nil
}
