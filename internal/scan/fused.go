package scan

// A WindowPred evaluates one predicate a segment window at a time, for the
// fused scan→aggregate path: instead of materializing a whole filter
// bitmap, the caller pulls each window's filter word while it is still
// register-resident and feeds it straight into an aggregate kernel.
//
// The two-phase scans (VBPStats, HBPStats) drive the same Decide and Eval
// per segment, so a fused query reports the same scan counters a
// two-phase one would. Implementations are read-only after construction,
// safe for concurrent use by parallel workers, and allocate nothing per
// window.
type WindowPred interface {
	// WindowBits is the number of tuples per window: 64 for VBP,
	// ValuesPerSegment for HBP. Fusion requires every predicate's window
	// to coincide with the aggregate column's.
	WindowBits() int
	// NumWindows is the number of windows (the column's segment count).
	NumWindows() int
	// Decide consults the zone map for window win. ok is false when no
	// zone is tracked; otherwise none/all mirror the scan's pruning
	// decision.
	Decide(win int) (none, all, ok bool)
	// Eval computes window win's filter word — bit j set iff tuple j of
	// the window matches — plus the packed words compared (net of early
	// stops). Bits at and above the window's valid tuple count are
	// unspecified; callers mask with the segment's value count.
	Eval(win int) (fw uint64, words uint64)
}
