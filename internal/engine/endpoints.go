package engine

import (
	"cmp"
	"slices"

	"snapk/internal/interval"
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

// SortRowsByEndpoints sorts rows in place into endpoint order, stably:
// rows with equal endpoints keep their relative order. It sorts
// (begin, end, index) keys, whose index makes every key distinct, so an
// unstable O(n log n) sort yields the stable order; one pass over the
// permutation's cycles then moves the rows.
func SortRowsByEndpoints(rows []tuple.Tuple) {
	type key struct {
		begin, end interval.Time
		i          int
	}
	keys := make([]key, len(rows))
	for i, row := range rows {
		iv := rowInterval(row)
		keys[i] = key{iv.Begin, iv.End, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.begin, b.begin); c != 0 {
			return c
		}
		if c := cmp.Compare(a.end, b.end); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	// Position j receives the row at keys[j].i. Each cycle is walked
	// once, marking a visited position by pointing its key at itself.
	for start := range keys {
		if keys[start].i == start {
			continue
		}
		first := rows[start]
		j := start
		for {
			src := keys[j].i
			keys[j].i = j
			if src == start {
				rows[j] = first
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
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
