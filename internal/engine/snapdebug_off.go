//go:build !snapdebug

package engine

// DebugChecks reports whether the snapdebug assertion layer is
// compiled in. See snapdebug_on.go for what the layer asserts.
func DebugChecks() bool { return false }

// CheckOrdered is an identity function without the snapdebug build
// tag; with it, the returned iterator asserts ascending begin order
// and panics naming op on violation.
func CheckOrdered(op string, in RowIter) RowIter { return in }

// CheckNoAlias is an identity function without the snapdebug build
// tag; with it, the returned iterator asserts that yielded rows are
// never mutated across NextBatch calls and panics naming op on violation.
func CheckNoAlias(op string, in RowIter) RowIter { return in }

// CheckErrChecked is an identity function without the snapdebug build
// tag; with it, the returned iterator asserts that a drain reaching
// end-of-stream consults Err before Close and panics naming op on
// violation.
func CheckErrChecked(op string, in RowIter) RowIter { return in }
