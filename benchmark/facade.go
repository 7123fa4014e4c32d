package main

import (
	"context"
	"fmt"

	"bpagg"
	"bpagg/internal/sqlmini"
)

// The bpagg rung: a plan run through the public package the way sqlmini
// drives it, minus parsing, binding and rendering. Flat and sharded
// queries are different types with the same method names, so the calls
// go through the small interfaces below.

type rowQuery interface {
	CountRowsContext(context.Context) (uint64, error)
	SumCountContext(context.Context, string) (uint64, uint64, error)
	MinContext(context.Context, string) (uint64, bool, error)
	MaxContext(context.Context, string) (uint64, bool, error)
	MedianContext(context.Context, string) (uint64, bool, error)
	QuantileContext(context.Context, string, float64) (uint64, bool, error)
}

type rangeQuery interface {
	CountRowsContext(context.Context) (uint64, error)
	CountContext(context.Context, string) (uint64, error)
	SumContext(context.Context, string) (uint64, error)
	MinContext(context.Context, string) (uint64, bool, error)
	MaxContext(context.Context, string) (uint64, bool, error)
}

type groupedQuery interface {
	Len() int
	KeyParts(int) []uint64
	CountContext(context.Context) ([]uint64, error)
	SumContext(context.Context, string) ([]uint64, error)
	MinContext(context.Context, string) ([]uint64, error)
	MaxContext(context.Context, string) ([]uint64, error)
}

func (l *ladder) facade(pl *plan, rec *bpagg.StatsCollector) error {
	st := l.p.inst.backend().st
	var (
		row    rowQuery
		rng    rangeQuery
		group  groupedQuery
		median func(col string) error // per-group MEDIAN
		err    error
	)
	if st.sharded != nil {
		q := st.sharded.Query().WithStatsInto(rec)
		for _, bp := range pl.preds {
			q.Where(bp.col, bp.pub)
		}
		row = q
		switch pl.class {
		case classRange:
			rng = q.Range(pl.rng[0], pl.rng[1])
		case classGroup:
			var g *bpagg.ShardedGrouped
			g, err = q.GroupByContext(l.ctx, pl.q.GroupBy...)
			group = g
			median = func(col string) error {
				_, _, err := g.MedianOkContext(l.ctx, col)
				return err
			}
		}
	} else {
		q := st.flat.Query().WithStatsInto(rec)
		for _, bp := range pl.preds {
			q.Where(bp.col, bp.pub)
		}
		row = q
		// Like sqlmini, run the fused Query path only when every select
		// expression fuses, and the bitmap path for all of them otherwise.
		if pl.class == classFilter || pl.class == classRank {
			for _, s := range pl.q.Selects {
				if !q.Fused(s.Column) {
					return flatBitmapRow(l.ctx, st.flat, pl, rec)
				}
			}
		}
		switch pl.class {
		case classRange:
			rng = q.Range(pl.rng[0], pl.rng[1])
		case classGroup:
			var g *bpagg.Grouped
			g, err = q.GroupByContext(l.ctx, pl.q.GroupBy...)
			group = g
			median = func(col string) error {
				c := st.flat.Column(col)
				for i := 0; i < g.Len(); i++ {
					if _, _, err := c.MedianContext(l.ctx, g.Selection(i), bpagg.CollectStats(rec)); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	if err != nil {
		return err
	}

	for _, s := range pl.q.Selects {
		switch {
		case rng != nil:
			err = rangeAgg(l.ctx, rng, s)
		case group != nil:
			err = groupAgg(l.ctx, group, s, median)
		default:
			err = rowAgg(l.ctx, row, s)
		}
		if err != nil {
			return err
		}
	}
	if group != nil {
		for i := 0; i < group.Len(); i++ {
			sink += uint64(len(group.KeyParts(i)))
		}
	}
	return nil
}

// flatBitmapRow is sqlmini's two-phase executor on a flat table: one scan
// per conjunct into a bitmap, then one Column aggregate per select
// expression on it.
func flatBitmapRow(ctx context.Context, t *bpagg.Table, pl *plan, rec *bpagg.StatsCollector) error {
	var sel *bpagg.Bitmap
	for _, bp := range pl.preds {
		m := t.Column(bp.col).ScanStats(bp.pub, rec)
		if sel == nil {
			sel = m
		} else {
			sel.And(m)
		}
	}
	opt := bpagg.CollectStats(rec)
	for _, s := range pl.q.Selects {
		var err error
		c := t.Column(s.Column)
		switch s.Func {
		case sqlmini.CountStar:
			sink += uint64(sel.Count())
		case sqlmini.Sum, sqlmini.Avg:
			if _, err = c.SumContext(ctx, sel, opt); err == nil {
				sink += c.Count(sel)
			}
		case sqlmini.Min:
			_, _, err = c.MinContext(ctx, sel, opt)
		case sqlmini.Max:
			_, _, err = c.MaxContext(ctx, sel, opt)
		case sqlmini.Median:
			_, _, err = c.MedianContext(ctx, sel, opt)
		case sqlmini.Quantile:
			_, _, err = c.QuantileContext(ctx, sel, s.Arg, opt)
		default:
			err = fmt.Errorf("ladder: bpagg bitmap rung cannot run %v", s.Func)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func rowAgg(ctx context.Context, q rowQuery, s sqlmini.SelectExpr) error {
	var err error
	switch s.Func {
	case sqlmini.CountStar, sqlmini.Count:
		_, err = q.CountRowsContext(ctx)
	case sqlmini.Sum, sqlmini.Avg:
		_, _, err = q.SumCountContext(ctx, s.Column)
	case sqlmini.Min:
		_, _, err = q.MinContext(ctx, s.Column)
	case sqlmini.Max:
		_, _, err = q.MaxContext(ctx, s.Column)
	case sqlmini.Median:
		_, _, err = q.MedianContext(ctx, s.Column)
	case sqlmini.Quantile:
		_, _, err = q.QuantileContext(ctx, s.Column, s.Arg)
	default:
		err = fmt.Errorf("ladder: bpagg rung cannot run %v", s.Func)
	}
	return err
}

func rangeAgg(ctx context.Context, r rangeQuery, s sqlmini.SelectExpr) error {
	var err error
	switch s.Func {
	case sqlmini.CountStar:
		_, err = r.CountRowsContext(ctx)
	case sqlmini.Sum, sqlmini.Avg:
		if _, err = r.SumContext(ctx, s.Column); err == nil {
			_, err = r.CountContext(ctx, s.Column)
		}
	case sqlmini.Min:
		_, _, err = r.MinContext(ctx, s.Column)
	case sqlmini.Max:
		_, _, err = r.MaxContext(ctx, s.Column)
	default:
		err = fmt.Errorf("ladder: bpagg range rung cannot run %v", s.Func)
	}
	return err
}

func groupAgg(ctx context.Context, g groupedQuery, s sqlmini.SelectExpr, median func(string) error) error {
	var err error
	switch s.Func {
	case sqlmini.CountStar, sqlmini.Count:
		_, err = g.CountContext(ctx)
	case sqlmini.Sum, sqlmini.Avg:
		_, err = g.SumContext(ctx, s.Column)
	case sqlmini.Min:
		_, err = g.MinContext(ctx, s.Column)
	case sqlmini.Max:
		_, err = g.MaxContext(ctx, s.Column)
	case sqlmini.Median:
		err = median(s.Column)
	default:
		err = fmt.Errorf("ladder: bpagg group rung cannot run %v", s.Func)
	}
	return err
}
