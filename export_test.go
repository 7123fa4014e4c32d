package bpagg

// LowerHashGroupBudget sets the partition's key budget (the unexported
// maxHashGroups hook) and returns the func that restores it, so tests —
// including the external bpagg_test package, which can reach sqlmini and
// bpaggd — get ErrGroupCardinality without building 2^20 distinct keys.
func LowerHashGroupBudget(n int) (restore func()) {
	old := maxHashGroups
	maxHashGroups = n
	return func() { maxHashGroups = old }
}
