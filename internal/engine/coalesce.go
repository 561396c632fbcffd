package engine

import (
	"bytes"
	"sort"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// CoalesceImpl selects one of the two multiset-coalescing implementations
// (Def 8.2), mirroring the two alternatives discussed in §9/§10.2.
type CoalesceImpl int

const (
	// CoalesceNative sorts the endpoint events of each value-equivalent
	// group once and sweeps — the single-sort native implementation the
	// paper suggests a database kernel would use.
	CoalesceNative CoalesceImpl = iota
	// CoalesceAnalytic mirrors the paper's SQL implementation built from
	// analytic window functions: the same counting sweep, but the window
	// declarations force the backend to sort the input multiple times
	// (the paper observed 2 and 7 sorts on its systems; we perform 3).
	CoalesceAnalytic
)

// coalesceSortSteps is the number of sorting passes performed by the
// analytic-window simulation.
const coalesceSortSteps = 3

// Coalesce implements the coalesce operator C (Def 8.2): it replaces the
// rows of every value-equivalent group with the unique N-coalesced
// encoding — maximal intervals of constant multiplicity, one row per
// multiplicity unit. The output is the canonical PERIODENC image of the
// ℕᵀ-relation the input encodes.
//
// The algorithm counts open intervals per time point: every row
// contributes +1 at its begin and −1 at its end; annotation changepoints
// are where the running count changes (cf. the paper's SQL implementation
// via analytic functions, §9).
func Coalesce(in *Table, impl CoalesceImpl) *Table {
	type event struct {
		t     interval.Time
		delta int64
	}
	type grp struct {
		data   tuple.Tuple
		events []event
	}
	n := in.DataArity()
	groups := make(map[string]*grp)
	order := make([]string, 0, 16)
	// Group-key lookups go through a reusable scratch buffer: the
	// map[string(scratch)] index avoids the per-row string allocation of
	// Tuple.Key; a key string is materialized once per distinct group.
	var scratch []byte
	for _, row := range in.Rows {
		data := row[:n]
		scratch = data.AppendKey(scratch[:0], nil)
		g, ok := groups[string(scratch)]
		if !ok {
			key := string(scratch)
			g = &grp{data: data}
			groups[key] = g
			order = append(order, key)
		}
		iv := in.Interval(row)
		g.events = append(g.events, event{t: iv.Begin, delta: 1}, event{t: iv.End, delta: -1})
	}
	out := &Table{Schema: in.Schema}
	for _, key := range order {
		g := groups[key]
		passes := 1
		if impl == CoalesceAnalytic {
			passes = coalesceSortSteps
		}
		for p := 0; p < passes; p++ {
			sort.Slice(g.events, func(i, j int) bool { return g.events[i].t < g.events[j].t })
		}
		var cur int64
		var segStart interval.Time
		for i := 0; i < len(g.events); {
			t := g.events[i].t
			var delta int64
			for i < len(g.events) && g.events[i].t == t {
				delta += g.events[i].delta
				i++
			}
			if delta == 0 {
				continue // no annotation change at t: keep the segment open
			}
			if cur > 0 {
				out.Rows = appendSegment(out.Rows, g.data, interval.New(segStart, t), cur)
			}
			cur += delta
			segStart = t
		}
	}
	// The output is the unique encoding by construction; record it so
	// KnownCoalesced answers without a rescan.
	out.markCoalesced()
	return out
}

// appendSegment appends mult copies of the row (data, iv) to rows — the
// one emission step of every sweep that writes ℕ multiplicities as
// duplicate rows. The copies share one slab allocation, cut with
// 3-index slices: each row's capacity ends where its sibling begins, so
// an append to one copy reallocates instead of writing into the next,
// and emitted siblings never alias.
func appendSegment(rows []tuple.Tuple, data tuple.Tuple, iv interval.Interval, mult int64) []tuple.Tuple {
	w := len(data) + 2
	slab := make(tuple.Tuple, int(mult)*w)
	for i := 0; i < len(slab); i += w {
		row := slab[i : i+w : i+w]
		copy(row, data)
		row[w-2] = tuple.Int(iv.Begin)
		row[w-1] = tuple.Int(iv.End)
		rows = append(rows, row)
	}
	return rows
}

// IsCoalesced reports whether the table already is its own coalesced
// encoding — used by tests to verify the uniqueness guarantee on final
// query results. It deliberately ignores the cached coalescedness
// metadata (see Table.KnownCoalesced): the differential harness uses it
// as the oracle that VALIDATES the sweeps, so it must recompute.
func IsCoalesced(in *Table, impl CoalesceImpl) bool {
	c := Coalesce(in, impl)
	if len(c.Rows) != len(in.Rows) {
		return false
	}
	a, b := in.Clone(), c
	a.Sort()
	b.Sort()
	var ka, kb []byte
	for i := range a.Rows {
		ka = a.Rows[i].AppendKey(ka[:0], nil)
		kb = b.Rows[i].AppendKey(kb[:0], nil)
		if !bytes.Equal(ka, kb) {
			return false
		}
	}
	return true
}
