package parallel

import "fmt"

// OverflowError reports that the true SUM exceeds uint64. The drivers
// only return it from the checked 128-bit kernels, which run when
// core.SumOverflowPossible says the column could wrap; the exact total is
// Hi·2^64 + Lo. The public API layer re-wraps it into bpagg.OverflowError.
type OverflowError struct {
	Hi, Lo uint64
}

// Error implements the error interface.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("parallel: sum overflows uint64 (hi=%d, lo=%d)", e.Hi, e.Lo)
}

// sum128Result maps a merged 128-bit total to the driver return contract:
// the uint64 value when it fits, *OverflowError when it does not.
func sum128Result(hi, lo uint64) (uint64, error) {
	if hi != 0 {
		return 0, &OverflowError{Hi: hi, Lo: lo}
	}
	return lo, nil
}
