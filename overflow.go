package bpagg

import (
	"errors"
	"fmt"
	"math/big"
)

// OverflowError reports that the true value of a SUM — or the sum inside
// an AVG — does not fit in uint64. The engine detects the possibility up
// front (a column of n k-bit codes can only overflow when n·(2^k−1)
// exceeds 2^64−1) and reruns the aggregate on 128-bit checked kernels,
// so the exact total is always available: true sum = Hi·2^64 + Lo.
// No aggregate ever returns a silently wrapped value.
//
// Plain methods (Column.Sum, Query.Sum, Grouped.Sum, and their Avg
// twins) panic with *OverflowError, consistent with their contract that
// runtime failures propagate as panics; the ...Context methods return
// it. See DESIGN.md §7.
type OverflowError struct {
	Hi, Lo uint64
	// Group holds the offending group's key — one code per grouping
	// column — when the overflow happened inside a grouped aggregate;
	// nil for ungrouped SUM/AVG.
	Group []uint64
}

// Error implements the error interface.
func (e *OverflowError) Error() string {
	if e.Group != nil {
		return fmt.Sprintf("bpagg: SUM overflows uint64 in group %v (true sum %s)", e.Group, e.Big().String())
	}
	return fmt.Sprintf("bpagg: SUM overflows uint64 (true sum %s)", e.Big().String())
}

// Big returns the exact sum as a big.Int (Hi·2^64 + Lo).
func (e *OverflowError) Big() *big.Int {
	b := new(big.Int).SetUint64(e.Hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(e.Lo))
}

// sum128 widens a SUM result to its exact 128-bit value: a total past
// uint64 arrives as an *OverflowError carrying it, which a merge adds
// like any other partial — so merged totals, and merged overflow reports,
// are exact. Any other error passes through.
func sum128(v uint64, err error) (hi, lo uint64, _ error) {
	if err != nil {
		var ov *OverflowError
		if errors.As(err, &ov) {
			return ov.Hi, ov.Lo, nil
		}
	}
	return 0, v, err
}
