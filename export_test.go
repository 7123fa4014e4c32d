package bpagg

import "context"

// LowerHashGroupBudget sets the partition's key budget (the unexported
// maxHashGroups hook) and returns the func that restores it, so tests —
// including the external bpagg_test package, which can reach sqlmini and
// bpaggd — get ErrGroupCardinality without building 2^20 distinct keys.
func LowerHashGroupBudget(n int) (restore func()) {
	old := maxHashGroups
	maxHashGroups = n
	return func() { maxHashGroups = old }
}

// nonNullCounts is each group's count of column's non-NULL values, the
// COUNT(column) cell a grouped statement's Row reads, for tests over a
// GroupByContext result, which names no aggregate.
func (g *ShardedGrouped) nonNullCounts(ctx context.Context, column string) ([]uint64, error) {
	a, err := g.answer(ctx, aggCall{op: opCount, column: column})
	if err != nil {
		return nil, err
	}
	return a.b.Count, nil
}
