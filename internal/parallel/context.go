package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"bpagg/internal/faultinject"
)

// PanicError is a worker panic recovered by the error-returning drivers.
// One bad segment (or an injected fault) surfaces as an error on the
// calling goroutine instead of crashing the process; the original panic
// value and stack are preserved for diagnosis.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker %d panicked: %v", e.Worker, e.Value)
}

// workerBlock is the number of segments a worker processes between
// cancellation checks. A segment is 64 tuples, so 4096 segments ≈ 256K
// tuples per check: coarse enough that the ctx.Err atomic load is free
// relative to kernel work, fine enough that cancellation lands in well
// under a millisecond of residual work per worker.
const workerBlock = 4096

// forEachRangeErr runs fn over each partition range of [0, nseg) on its
// own goroutine, slicing every range into workerBlock-segment blocks with
// a ctx check before each block, and recovers worker panics into
// *PanicError. All workers are always joined — an error or panic in one
// worker never strands the others — and the first error (by worker index)
// is returned after the join. It returns the number of partitions used.
//
// A single partition (Threads < 2, or a column of one segment) runs
// inline on the caller's goroutine as worker 0 with the same checks: a
// goroutine spawn plus a WaitGroup park costs more than the kernel on a
// small shard, and every serial driver call takes this path.
//
// Because a worker may call fn several times with sub-ranges of its
// partition, fn must accumulate into per-worker state rather than
// overwrite it.
func forEachRangeErr(ctx context.Context, nseg, threads int, fn func(worker, segLo, segHi int) error) (int, error) {
	return forEachAlignedErr(ctx, nseg, 1, threads, fn)
}

// forEachAlignedErr is forEachRangeErr with every partition boundary a
// multiple of unit, which must divide workerBlock: every range fn sees
// then starts on a multiple of unit too (the MIN/MAX prune blocks).
func forEachAlignedErr(ctx context.Context, nseg, unit, threads int, fn func(worker, segLo, segHi int) error) (int, error) {
	if threads < 2 || nseg <= unit {
		return 1, runRange(ctx, 0, 0, nseg, fn)
	}
	parts := partition((nseg+unit-1)/unit, threads)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for w, p := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = runRange(ctx, w, lo, hi, fn)
		}(w, p[0]*unit, min(p[1]*unit, nseg))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return len(parts), err
		}
	}
	return len(parts), nil
}

// runRange is one worker's pass over segments [lo, hi) in workerBlock
// slices, with panic containment.
func runRange(ctx context.Context, w, lo, hi int, fn func(worker, segLo, segHi int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire(faultinject.SiteWorkerStart, w); err != nil {
		return err
	}
	for lo < hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire(faultinject.SiteWorkerRange, w); err != nil {
			return err
		}
		end := lo + workerBlock
		if end > hi {
			end = hi
		}
		if err := fn(w, lo, end); err != nil {
			return err
		}
		lo = end
	}
	return nil
}
