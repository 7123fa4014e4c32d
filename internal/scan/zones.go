package scan

// zoneDecision classifies a predicate against a segment's zone-map range
// [lo, hi]: none means no value in the range can match (the whole segment
// skips with an all-zero filter word), all means every value must match
// (the segment skips with an all-one word). Both prunes avoid touching the
// segment's packed words entirely — the zone-map counterpart of the
// paper's early stopping, decisive on sorted or clustered columns.
func (p Predicate) zoneDecision(lo, hi uint64) (none, all bool) {
	switch p.Op {
	case EQ:
		return p.A < lo || p.A > hi, lo == hi && lo == p.A
	case NE:
		return lo == hi && lo == p.A, p.A < lo || p.A > hi
	case LT:
		return lo >= p.A, hi < p.A
	case LE:
		return lo > p.A, hi <= p.A
	case GT:
		return hi <= p.A, lo > p.A
	case GE:
		return hi < p.A, lo >= p.A
	case Between:
		return hi < p.A || lo > p.B, lo >= p.A && hi <= p.B
	default:
		return false, false
	}
}

// decide lifts zoneDecision over a column's ZoneRange result: a segment
// without a tracked zone (ok false) is decided neither way.
func (p Predicate) decide(lo, hi uint64, ok bool) (none, all, tracked bool) {
	if !ok {
		return false, false, false
	}
	none, all = p.zoneDecision(lo, hi)
	return none, all, true
}
