package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/faultinject"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
)

// TestCtxVariantsMatchCore pins every Ctx driver against the serial core
// reference across layouts, bit-group sizes and thread counts.
func TestCtxVariantsMatchCore(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	for _, sh := range []struct {
		n   int
		k   int
		sel float64
	}{
		{1, 8, 1}, {64 * 11, 25, 0.3}, {64*6 + 7, 12, 0.01}, {500, 8, 0}, {64 * 16, 7, 0.9},
	} {
		vals, f := fixture(rng, sh.n, sh.k, sh.sel)
		vcol := vbp.Pack(vals, sh.k, 4)
		hcols := []*hbp.Column{hbp.Pack(vals, sh.k, 4), hbp.Pack(vals, sh.k, hbp.DefaultTau(sh.k))}
		u := core.Count(f)
		for _, o := range optsMatrix {
			gotSum, err := VBPSumCtx(ctx, vcol, f, o)
			if err != nil || gotSum != core.VBPSum(vcol, f) {
				t.Fatalf("VBPSumCtx %+v: got (%d,%v) want (%d,nil)", o, gotSum, err, core.VBPSum(vcol, f))
			}
			// AVG is this SUM over the filter's COUNT, wherever it is divided out.
			if wantAvg, ok := core.VBPAvg(vcol, f); ok != (u > 0) || ok && float64(gotSum)/float64(u) != wantAvg {
				t.Fatalf("VBPSumCtx/COUNT %+v: got %v want (%v,%v)", o, float64(gotSum)/float64(u), wantAvg, ok)
			}
			wantMin, wantMinOK := core.VBPMin(vcol, f)
			if got, ok, err := VBPMinCtx(ctx, vcol, f, o); err != nil || got != wantMin || ok != wantMinOK {
				t.Fatalf("VBPMinCtx %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMin, wantMinOK)
			}
			wantMax, wantMaxOK := core.VBPMax(vcol, f)
			if got, ok, err := VBPMaxCtx(ctx, vcol, f, o); err != nil || got != wantMax || ok != wantMaxOK {
				t.Fatalf("VBPMaxCtx %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMax, wantMaxOK)
			}
			wantMed, wantMedOK := core.VBPMedian(vcol, f)
			if got, ok, err := VBPRankCtx(ctx, vcol, f, (u+1)/2, o); err != nil || got != wantMed || ok != wantMedOK {
				t.Fatalf("VBPRankCtx(median) %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMed, wantMedOK)
			}
			for _, r := range []uint64{0, 1, u, u + 1} {
				wr, wok := core.VBPRank(vcol, f, r)
				if got, ok, err := VBPRankCtx(ctx, vcol, f, r, o); err != nil || got != wr || ok != wok {
					t.Fatalf("VBPRankCtx(%d) %+v: got (%d,%v,%v) want (%d,%v,nil)", r, o, got, ok, err, wr, wok)
				}
			}

			for _, hcol := range hcols {
				gotSum, err := HBPSumCtx(ctx, hcol, f, o)
				if err != nil || gotSum != core.HBPSum(hcol, f) {
					t.Fatalf("HBPSumCtx %+v: got (%d,%v) want (%d,nil)", o, gotSum, err, core.HBPSum(hcol, f))
				}
				// AVG is this SUM over the filter's COUNT, wherever it is divided out.
				if wantAvg, ok := core.HBPAvg(hcol, f); ok != (u > 0) || ok && float64(gotSum)/float64(u) != wantAvg {
					t.Fatalf("HBPSumCtx/COUNT %+v: got %v want (%v,%v)", o, float64(gotSum)/float64(u), wantAvg, ok)
				}
				wantMin, wantMinOK := core.HBPMin(hcol, f)
				if got, ok, err := HBPMinCtx(ctx, hcol, f, o); err != nil || got != wantMin || ok != wantMinOK {
					t.Fatalf("HBPMinCtx %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMin, wantMinOK)
				}
				wantMax, wantMaxOK := core.HBPMax(hcol, f)
				if got, ok, err := HBPMaxCtx(ctx, hcol, f, o); err != nil || got != wantMax || ok != wantMaxOK {
					t.Fatalf("HBPMaxCtx %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMax, wantMaxOK)
				}
				wantMed, wantMedOK := core.HBPMedian(hcol, f)
				if got, ok, err := HBPRankCtx(ctx, hcol, f, (u+1)/2, o); err != nil || got != wantMed || ok != wantMedOK {
					t.Fatalf("HBPRankCtx(median) %+v: got (%d,%v,%v) want (%d,%v,nil)", o, got, ok, err, wantMed, wantMedOK)
				}
				for _, r := range []uint64{0, 1, u, u + 1} {
					wr, wok := core.HBPRank(hcol, f, r)
					if got, ok, err := HBPRankCtx(ctx, hcol, f, r, o); err != nil || got != wr || ok != wok {
						t.Fatalf("HBPRankCtx(%d) %+v: got (%d,%v,%v) want (%d,%v,nil)", r, o, got, ok, err, wr, wok)
					}
				}
			}
		}
	}
}

// TestCtxExpiredDeadline proves an already-expired deadline fails every
// driver with context.DeadlineExceeded before any segment is processed.
func TestCtxExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	vals, f := fixture(rng, 64*128, 16, 0.5)
	vcol := vbp.Pack(vals, 16, 4)
	hcol := hbp.Pack(vals, 16, hbp.DefaultTau(16))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	o := Options{Threads: 4}
	if _, err := VBPSumCtx(ctx, vcol, f, o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("VBPSumCtx = %v, want DeadlineExceeded", err)
	}
	if _, _, err := VBPRankCtx(ctx, vcol, f, 1, o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("VBPRankCtx = %v, want DeadlineExceeded", err)
	}
	if _, err := HBPSumCtx(ctx, hcol, f, o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("HBPSumCtx = %v, want DeadlineExceeded", err)
	}
	if _, _, err := HBPRankCtx(ctx, hcol, f, 1, o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("HBPRankCtx = %v, want DeadlineExceeded", err)
	}
}

// TestCtxCancelMidRank cancels from inside a worker (via the block-level
// fault hook) and requires the rank loop to abort and propagate the
// cancellation instead of finishing the radix descent.
func TestCtxCancelMidRank(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(93))
	vals, f := fixture(rng, 64*64, 20, 0.8)
	vcol := vbp.Pack(vals, 20, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var fires atomic.Int32
	faultinject.Set(faultinject.SiteWorkerRange, func(args ...any) error {
		if fires.Add(1) == 3 {
			cancel() // takes effect at the next block's ctx check
		}
		return nil
	})
	_, _, err := VBPRankCtx(ctx, vcol, f, 1000, Options{Threads: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("VBPRankCtx after mid-run cancel = %v, want context.Canceled", err)
	}
}

// TestWorkerPanicRecovered injects a panic into one worker and checks it
// surfaces as *PanicError while every other worker still joins.
func TestWorkerPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(94))
	vals, f := fixture(rng, 64*64, 16, 0.5)
	vcol := vbp.Pack(vals, 16, 4)
	var started, finished atomic.Int32
	faultinject.Set(faultinject.SiteWorkerStart, func(args ...any) error {
		started.Add(1)
		if args[0].(int) == 1 {
			panic("injected segment fault")
		}
		return nil
	})
	faultinject.Set(faultinject.SiteWorkerRange, func(args ...any) error {
		finished.Add(1)
		return nil
	})
	_, err := VBPSumCtx(context.Background(), vcol, f, Options{Threads: 4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("VBPSumCtx with injected panic = %v, want *PanicError", err)
	}
	if pe.Worker != 1 || pe.Value != "injected segment fault" {
		t.Fatalf("PanicError = worker %d value %v, want worker 1 value %q", pe.Worker, pe.Value, "injected segment fault")
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if started.Load() != 4 {
		t.Fatalf("started %d workers, want 4 (panicking worker must not strand the others)", started.Load())
	}
	// All non-panicking workers ran to completion before the error returned.
	if finished.Load() == 0 {
		t.Fatal("no healthy worker processed a block")
	}
}

// TestForEachRangeErrFirstErrorWins checks that the error of the lowest
// worker index is reported when several workers fail.
func TestForEachRangeErrFirstErrorWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	_, err := forEachRangeErr(context.Background(), 8, 4, func(w, lo, hi int) error {
		switch w {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("forEachRangeErr = %v, want first-by-index error %v", err, errA)
	}
}

// TestForEachRangeErrBlocksAccumulate verifies a worker's fn sees its
// partition as contiguous, gap-free blocks covering every segment once.
func TestForEachRangeErrBlocksAccumulate(t *testing.T) {
	const nseg = workerBlock*2 + 17
	var covered atomic.Int64
	_, err := forEachRangeErr(context.Background(), nseg, 3, func(w, lo, hi int) error {
		if hi-lo > workerBlock || lo >= hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		covered.Add(int64(hi - lo))
		return nil
	})
	if err != nil {
		t.Fatalf("forEachRangeErr = %v", err)
	}
	if covered.Load() != nseg {
		t.Fatalf("blocks covered %d segments, want %d", covered.Load(), nseg)
	}
}

// TestPartitionDegenerateInputs covers nseg=0, threads <= 0, and
// threads > nseg: the partition must always cover [0, nseg) exactly with
// at least one range and no empty tail ranges beyond nseg=0.
func TestPartitionDegenerateInputs(t *testing.T) {
	for _, c := range []struct{ nseg, n int }{
		{0, 0}, {0, 4}, {0, -2}, {5, 0}, {5, -1}, {3, 100}, {1, 1},
	} {
		parts := partition(c.nseg, c.n)
		if len(parts) < 1 {
			t.Fatalf("partition(%d,%d) returned no ranges", c.nseg, c.n)
		}
		if c.nseg > 0 && len(parts) > c.nseg {
			t.Fatalf("partition(%d,%d) made %d ranges, more than segments", c.nseg, c.n, len(parts))
		}
		last, covered := 0, 0
		for _, p := range parts {
			if p[0] != last || p[1] < p[0] {
				t.Fatalf("partition(%d,%d) = %v: gap or inverted range", c.nseg, c.n, parts)
			}
			covered += p[1] - p[0]
			last = p[1]
		}
		if covered != c.nseg || last != c.nseg {
			t.Fatalf("partition(%d,%d) = %v covers %d, want %d", c.nseg, c.n, parts, covered, c.nseg)
		}
	}
}

// TestThreadCountDeterminism requires Threads=1 and Threads=8 to produce
// bit-identical SUM/MIN/MAX/MEDIAN results.
func TestThreadCountDeterminism(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(95))
	vals, f := fixture(rng, 64*300+13, 21, 0.6)
	serial, o := Options{Threads: 1}, Options{Threads: 8}
	vcol := vbp.Pack(vals, 21, 4)
	hcol := hbp.Pack(vals, 21, hbp.DefaultTau(21))
	a, _ := VBPSumCtx(ctx, vcol, f, serial)
	if b, _ := VBPSumCtx(ctx, vcol, f, o); a != b {
		t.Fatalf("VBPSum differs: serial %d, %+v %d", a, o, b)
	}
	a, _ = HBPSumCtx(ctx, hcol, f, serial)
	if b, _ := HBPSumCtx(ctx, hcol, f, o); a != b {
		t.Fatalf("HBPSum differs: serial %d, %+v %d", a, o, b)
	}
	for name, agg := range map[string]func(Options) (uint64, bool, error){
		"VBPMin":    func(o Options) (uint64, bool, error) { return VBPMinCtx(ctx, vcol, f, o) },
		"VBPMax":    func(o Options) (uint64, bool, error) { return VBPMaxCtx(ctx, vcol, f, o) },
		"VBPMedian": func(o Options) (uint64, bool, error) { return VBPRankCtx(ctx, vcol, f, (core.Count(f)+1)/2, o) },
		"HBPMedian": func(o Options) (uint64, bool, error) { return HBPRankCtx(ctx, hcol, f, (core.Count(f)+1)/2, o) },
	} {
		a1, aok, _ := agg(serial)
		b1, bok, _ := agg(o)
		if a1 != b1 || aok != bok {
			t.Fatalf("%s differs: serial (%d,%v), %+v (%d,%v)", name, a1, aok, o, b1, bok)
		}
	}
}

// TestForEachRangeErrSinglePartitionInline pins the single-partition
// path: the caller's goroutine is worker 0 (no goroutine is spawned), and
// it keeps everything the goroutine workers do — panic containment with
// the stack, a ctx check and both fault sites before every block, and
// the first error returned.
func TestForEachRangeErrSinglePartitionInline(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	const nseg = workerBlock*2 + 5

	before := runtime.NumGoroutine()
	var blocks int
	used, err := forEachRangeErr(ctx, nseg, 1, func(w, lo, hi int) error {
		blocks++ // unsynchronised on purpose: -race fails if this is not the caller's goroutine
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("NumGoroutine inside the worker = %d, was %d before the call", n, before)
		}
		buf := make([]byte, 4096)
		if st := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(st, "TestForEachRangeErrSinglePartitionInline") {
			t.Errorf("worker is not on the caller's stack:\n%s", st)
		}
		if w != 0 {
			t.Errorf("worker index %d, want 0", w)
		}
		return nil
	})
	if err != nil || used != 1 || blocks != 3 {
		t.Fatalf("forEachRangeErr = (%d, %v) over %d blocks, want (1, nil) over 3", used, err, blocks)
	}
	// One segment is one partition at any thread count.
	if used, err := forEachRangeErr(ctx, 1, 8, func(w, lo, hi int) error { return nil }); used != 1 || err != nil {
		t.Fatalf("forEachRangeErr(nseg=1, threads=8) = (%d, %v), want (1, nil)", used, err)
	}

	_, err = forEachRangeErr(ctx, nseg, 1, func(w, lo, hi int) error { panic("inline fault") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 0 || pe.Value != "inline fault" || len(pe.Stack) == 0 {
		t.Fatalf("panicking inline worker = %v, want *PanicError{Worker: 0} with a stack", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	blocks = 0
	_, err = forEachRangeErr(cctx, nseg, 1, func(w, lo, hi int) error {
		blocks++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || blocks != 1 {
		t.Fatalf("cancel inside block 1 = %v after %d blocks, want context.Canceled after 1", err, blocks)
	}

	errStart, errRange := errors.New("start fault"), errors.New("range fault")
	faultinject.Set(faultinject.SiteWorkerRange, func(args ...any) error {
		if blocks++; blocks == 2 {
			return errRange
		}
		return nil
	})
	blocks = 0
	if _, err = forEachRangeErr(ctx, nseg, 1, func(w, lo, hi int) error { return nil }); err != errRange {
		t.Fatalf("injected SiteWorkerRange fault = %v, want %v", err, errRange)
	}
	faultinject.Set(faultinject.SiteWorkerStart, func(args ...any) error { return errStart })
	if _, err = forEachRangeErr(ctx, nseg, 1, func(w, lo, hi int) error { return nil }); err != errStart {
		t.Fatalf("injected SiteWorkerStart fault = %v, want %v", err, errStart)
	}
}

// TestForEachIndexErrSerialInline pins the serial fan-out: below two
// threads every index runs on the caller's goroutine (no goroutine is
// spawned), in order, with a ctx check before each index, panic
// containment, and the first error by index returned.
func TestForEachIndexErrSerialInline(t *testing.T) {
	ctx := context.Background()
	const n = 5
	for _, threads := range []int{0, 1} {
		before := runtime.NumGoroutine()
		var order []int // unsynchronised on purpose: -race fails if fn leaves the caller's goroutine
		err := ForEachIndexErr(ctx, n, threads, t, func(t *testing.T, _ context.Context, i int) error {
			order = append(order, i)
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("threads=%d: NumGoroutine inside index %d = %d, was %d before the call", threads, i, g, before)
			}
			buf := make([]byte, 4096)
			if st := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(st, "TestForEachIndexErrSerialInline") {
				t.Errorf("threads=%d: index %d is not on the caller's stack:\n%s", threads, i, st)
			}
			return nil
		})
		if err != nil || fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("threads=%d: ForEachIndexErr = %v over %v, want nil over [0 1 2 3 4]", threads, err, order)
		}

		errA, errB := errors.New("a"), errors.New("b")
		order = order[:0]
		err = ForEachIndexErr(ctx, n, threads, t, func(t *testing.T, _ context.Context, i int) error {
			order = append(order, i)
			switch i {
			case 1:
				return errA
			case 2:
				panic("serial fault")
			case 3:
				return errB
			}
			return nil
		})
		if err != errA || len(order) != n {
			t.Fatalf("threads=%d: errors at 1 and 3 = %v after %d indices, want %v after %d", threads, err, len(order), errA, n)
		}
		err = ForEachIndexErr(ctx, n, threads, t, func(t *testing.T, _ context.Context, i int) error {
			if i == 2 {
				panic("serial fault")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Worker != 0 || pe.Value != "serial fault" || len(pe.Stack) == 0 {
			t.Fatalf("threads=%d: panicking index = %v, want *PanicError{Worker: 0} with a stack", threads, err)
		}

		cctx, cancel := context.WithCancel(ctx)
		order = order[:0]
		err = ForEachIndexErr(cctx, n, threads, t, func(t *testing.T, _ context.Context, i int) error {
			order = append(order, i)
			if i == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || len(order) != 3 {
			t.Fatalf("threads=%d: cancel inside index 2 = %v after %v, want context.Canceled after [0 1 2]", threads, err, order)
		}
	}
}

// TestSumDriversOverflowContract pins the folded SUM skeleton: on a
// column where overflow is possible the two-phase and fused drivers of
// both layouts return *OverflowError carrying the exact 128-bit total at
// any thread count, and the plain uint64 sum when the total fits or the
// column cannot overflow at all.
func TestSumDriversOverflowContract(t *testing.T) {
	ctx := context.Background()
	const n = 64*40 + 9
	for _, tc := range []struct {
		name string
		k    int
		val  func(i int) uint64
	}{
		{"overflows", 64, func(i int) uint64 { return 1<<63 + uint64(i) }},
		{"possible-but-fits", 64, func(i int) uint64 { return uint64(i) << 40 }},
		{"impossible", 20, func(i int) uint64 { return uint64(i*7919) & (1<<20 - 1) }},
	} {
		vals := make([]uint64, n)
		f := bitvec.New(n)
		want := new(big.Int)
		for i := range vals {
			vals[i] = tc.val(i)
			if i%3 != 0 { // the predicate below selects the same rows
				f.Set(i)
				want.Add(want, new(big.Int).SetUint64(vals[i]))
			}
		}
		wantHi := new(big.Int).Rsh(want, 64).Uint64()
		wantLo := new(big.Int).And(want, new(big.Int).SetUint64(^uint64(0))).Uint64()
		if possible := core.SumOverflowPossible(tc.k, n); possible != (tc.k == 64) {
			t.Fatalf("%s: SumOverflowPossible = %v", tc.name, possible)
		}
		// A 2-bit selector column (i%3) gives the fused drivers a predicate.
		sel := make([]uint64, n)
		for i := range sel {
			sel[i] = uint64(i % 3)
		}
		vcol, hcol := vbp.Pack(vals, tc.k, 4), hbp.Pack(vals, tc.k, hbp.DefaultTau(tc.k))
		vpreds := []scan.WindowPred{scan.NewVBPWindowPred(vbp.Pack(sel, 2, 2), scan.Predicate{Op: scan.NE, A: 0})}
		for _, threads := range []int{1, 8} {
			o := Options{Threads: threads}
			check := func(driver string, got uint64, err error) {
				t.Helper()
				var oe *OverflowError
				switch {
				case wantHi != 0:
					if !errors.As(err, &oe) || oe.Hi != wantHi || oe.Lo != wantLo {
						t.Fatalf("%s %s threads=%d: got (%d, %v), want OverflowError{Hi: %d, Lo: %d}",
							tc.name, driver, threads, got, err, wantHi, wantLo)
					}
				case err != nil || got != wantLo:
					t.Fatalf("%s %s threads=%d: got (%d, %v), want (%d, nil)", tc.name, driver, threads, got, err, wantLo)
				}
			}
			got, err := VBPSumCtx(ctx, vcol, f, o)
			check("VBPSumCtx", got, err)
			got, err = HBPSumCtx(ctx, hcol, f, o)
			check("HBPSumCtx", got, err)
			got, cnt, err := VBPFusedSumCtx(ctx, vcol, vpreds, o)
			check("VBPFusedSumCtx", got, err)
			if err == nil && cnt != uint64(f.Count()) {
				t.Fatalf("%s VBPFusedSumCtx threads=%d: count %d, want %d", tc.name, threads, cnt, f.Count())
			}
		}
	}
}
