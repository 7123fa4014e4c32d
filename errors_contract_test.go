package bpagg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bpagg/internal/core"
	"bpagg/internal/faultinject"
)

// TestErrorContract pins the error classification surface the serving
// layer depends on: every engine failure mode must satisfy errors.Is/As
// through arbitrary fmt.Errorf("%w") wrapping, so HTTP status mapping
// (internal/server.statusFor) never needs string sniffing. Each case
// produces its error from a REAL execution path, not a hand-built value
// — if a path stops returning the typed error, this test is what breaks.
func TestErrorContract(t *testing.T) {
	defer faultinject.Reset()

	overflowErr := func() error {
		// Two max-width values: 2·(2^64−1) cannot fit in uint64, so the
		// checked kernels must return the exact 128-bit total.
		tbl := NewTable()
		tbl.AddColumn("v", VBP, 64)
		tbl.AppendColumnar(map[string][]uint64{"v": {^uint64(0), ^uint64(0)}})
		_, err := tbl.Query().SumContext(context.Background(), "v")
		return err
	}

	panicErr := func() error {
		faultinject.Set(faultinject.SiteWorkerStart, func(args ...any) error {
			if args[0].(int) == 1 {
				panic("injected corrupt segment")
			}
			return nil
		})
		defer faultinject.Reset()
		col, sel := bigColumn(t, VBP, 64*512, 16)
		_, err := col.SumContext(context.Background(), sel, Parallel(4))
		return err
	}

	deadlineErr := func() error {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
		defer cancel()
		col, sel := bigColumn(t, HBP, 64*512, 16)
		_, err := col.SumContext(ctx, sel, Parallel(2))
		return err
	}

	cancelErr := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		col, sel := bigColumn(t, VBP, 64*512, 16)
		_, _, err := col.MedianContext(ctx, sel)
		return err
	}

	// More distinct keys than the partition's budget (lowered through the
	// test hook), through the public GroupByContext of a flat query, a
	// row range of it, and a three-shard store whose first shard alone is
	// over budget — wrapExecErr and the shard fan-out must both pass the
	// sentinel through.
	defer LowerHashGroupBudget(100)()
	const cardRows = 300
	cardKeys := make([]uint64, cardRows)
	for i := range cardKeys {
		cardKeys[i] = uint64(i)
	}
	cardTable := func() *Table {
		tbl := NewTable()
		tbl.AddColumn("g", VBP, 11)
		tbl.AppendColumnar(map[string][]uint64{"g": cardKeys})
		return tbl
	}
	cardinalityErr := func() error {
		_, err := cardTable().Query().GroupByContext(context.Background(), "g")
		return err
	}
	cardinalityRangedErr := func() error {
		_, err := cardTable().Query().Range(10, cardRows-10).GroupByContext(context.Background(), "g")
		return err
	}
	cardinalityShardedErr := func() error {
		st := NewShardedTable(128)
		st.AddColumn("g", VBP, 11)
		st.AppendColumnar(map[string][]uint64{"g": cardKeys})
		_, err := st.Query().With(Parallel(2)).GroupByContext(context.Background(), "g")
		return err
	}
	isCardinality := func(err error) bool { return errors.Is(err, ErrGroupCardinality) }

	cases := []struct {
		name string
		make func() error
		want func(error) bool
	}{
		{"overflow errors.As", overflowErr, func(err error) bool {
			var oe *OverflowError
			return errors.As(err, &oe) && oe.Hi == 1
		}},
		{"panic errors.As", panicErr, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Worker == 1 && len(pe.Stack) > 0
		}},
		{"deadline errors.Is", deadlineErr, func(err error) bool {
			return errors.Is(err, context.DeadlineExceeded)
		}},
		{"canceled errors.Is", cancelErr, func(err error) bool {
			return errors.Is(err, context.Canceled)
		}},
		{"group cardinality errors.Is", cardinalityErr, isCardinality},
		{"group cardinality ranged errors.Is", cardinalityRangedErr, isCardinality},
		{"group cardinality sharded errors.Is", cardinalityShardedErr, isCardinality},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make()
			if err == nil {
				t.Fatal("execution path returned nil; expected a typed error")
			}
			if !tc.want(err) {
				t.Fatalf("raw error %v (%T) does not satisfy the contract", err, err)
			}
			// The contract must survive wrapping — twice, because serving
			// layers and callers both annotate.
			wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err))
			if !tc.want(wrapped) {
				t.Fatalf("wrapped error %v does not satisfy the contract", wrapped)
			}
		})
	}

	// The exported sentinel IS the internal one — not a lookalike — so
	// classification agrees on both sides of the internal boundary.
	if !errors.Is(core.ErrGroupCardinality, ErrGroupCardinality) {
		t.Error("bpagg.ErrGroupCardinality is not core.ErrGroupCardinality")
	}
}

// TestGroupedAvgOverflowNamesGroup pins the grouped overflow contract of
// the plain method over a NULL-bearing measure: the *OverflowError that
// Grouped.Avg panics with names the offending group and carries the same
// 128-bit total as AvgContext's error. The banked kernels drop the NULL
// row and still sum in 128 bits.
func TestGroupedAvgOverflowNamesGroup(t *testing.T) {
	v, g := NewColumn(VBP, 64), NewColumn(VBP, 2)
	for _, row := range []struct {
		g, v uint64
		null bool
	}{{g: 0, v: 7}, {g: 1, v: 1 << 63}, {g: 2, null: true}, {g: 1, v: 1 << 63}} {
		g.Append(row.g)
		if row.null {
			v.AppendNull()
		} else {
			v.Append(row.v)
		}
	}
	grouped := must(NewTableFromColumns([]string{"g", "v"}, []*Column{g, v}).Query().GroupByContext(bg, "g"))
	if counts, err := grouped.nonNullCounts(context.Background(), "v"); err != nil || !reflect.DeepEqual(counts, []uint64{1, 2, 0}) {
		t.Fatalf("non-NULL counts per group = %v, %v; want [1 2 0]", counts, err)
	}

	_, err := grouped.AvgContext(context.Background(), "v")
	var want *OverflowError
	if !errors.As(err, &want) {
		t.Fatalf("AvgContext = %v, want *OverflowError", err)
	}
	if want.Hi != 1 || want.Lo != 0 {
		t.Errorf("AvgContext total (%d, %d), want (1, 0)", want.Hi, want.Lo)
	}
	if key := grouped.KeyParts(1); !reflect.DeepEqual(want.Group, key) {
		t.Errorf("AvgContext names group %v, want %v", want.Group, key)
	}
}
