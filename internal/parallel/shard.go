package parallel

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ForEachIndexErr runs fn(arg, ctx, i) for every index in [0, n) across up to
// `threads` worker goroutines — the shard fan-out primitive. Indices are
// pulled from a shared counter (shards vary wildly in residual work after
// pruning, so static partitioning would idle workers), each call is
// panic-contained into *PanicError, and a ctx check precedes every index.
// All workers are always joined, and errors are keyed by index, not by
// worker, so the returned error — the first by index order — is
// deterministic at any thread count. arg carries what fn needs, so fn can
// be a method expression on it rather than a closure built for every
// call.
func ForEachIndexErr[T any](ctx context.Context, n, threads int, arg T, fn func(arg T, ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if threads > n {
		threads = n
	}
	if threads < 2 {
		// Serial (Threads < 2, or a single index): every index runs inline
		// on the caller's goroutine, in order, with a worker's checks. A
		// goroutine spawn plus a WaitGroup park costs more than most
		// per-shard aggregate kernels on a small shard.
		var first error
		for i := 0; i < n; i++ {
			err := ctx.Err()
			if err == nil {
				err = runIndex(ctx, 0, i, arg, fn)
			}
			if first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = runIndex(ctx, w, i, arg, fn)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runIndex executes fn(arg, ctx, i) with panic containment.
func runIndex[T any](ctx context.Context, w, i int, arg T, fn func(arg T, ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(arg, ctx, i)
}
