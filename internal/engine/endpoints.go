package engine

import (
	"sort"

	"snapk/internal/tuple"
)

// This file is the single source of truth for interval-endpoint order
// over period-encoded rows. Every operator that sorts by or relies on
// endpoint order — the streaming sweeps, the overlap join,
// Table.SortByEndpoints, Table.Sort and IsCoalesced — goes through these helpers, so the
// sort semantics cannot drift between per-file copies.

// CompareEndpoints compares two period rows by (begin, end), the
// canonical interval-endpoint order of the sweep operators. Direct
// comparisons, not subtraction: extreme timestamps (e.g. int64
// sentinels for ±infinity in user-supplied domains) must not overflow.
func CompareEndpoints(a, b tuple.Tuple) int {
	na, nb := len(a), len(b)
	switch ab, bb := a[na-2].AsInt(), b[nb-2].AsInt(); {
	case ab < bb:
		return -1
	case ab > bb:
		return 1
	}
	switch ae, be := a[na-1].AsInt(), b[nb-1].AsInt(); {
	case ae < be:
		return -1
	case ae > be:
		return 1
	default:
		return 0
	}
}

// EndpointLess reports whether a precedes b in endpoint order.
func EndpointLess(a, b tuple.Tuple) bool { return CompareEndpoints(a, b) < 0 }

// SortRowsByEndpoints sorts rows in place into endpoint order.
func SortRowsByEndpoints(rows []tuple.Tuple) {
	sort.SliceStable(rows, func(i, j int) bool { return EndpointLess(rows[i], rows[j]) })
}

// RowsBeginSorted reports whether rows are already ordered by ascending
// interval begin — the physical property the streaming sweep operators
// require of their input.
func RowsBeginSorted(rows []tuple.Tuple) bool {
	for i := 1; i < len(rows); i++ {
		if rowInterval(rows[i]).Begin < rowInterval(rows[i-1]).Begin {
			return false
		}
	}
	return true
}
