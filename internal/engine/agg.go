package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// TemporalAggregate implements the REWR aggregation pattern (Fig 4):
// split the input on the grouping columns so that aggregates are constant
// per resulting interval, then aggregate per (group, interval). Without
// grouping, a virtual neutral row spanning the whole domain is unioned in
// first (the Fig 4 pattern REWR(γf(A)) with {(null, Tmin, Tmax)}), so
// gaps produce rows (count 0 / NULL aggregate) — this is what fixes the
// AG bug.
//
// With preAgg (the §9 optimization) the split is fused with the
// aggregation into one endpoint sweep per group using incremental
// accumulators, so the sort runs over group endpoints instead of
// materialized split rows, and the result is already the unique
// coalesced encoding. With preAgg false, the operator materializes
// Split (Def 8.3) output and hash-aggregates it — the naive plan used as
// the ablation baseline, one row per elementary segment.
func TemporalAggregate(in *Table, groupBy []string, aggs []algebra.AggSpec, preAgg bool, dom interval.Domain) (*Table, error) {
	prep, err := prepareAggregate(in.DataSchema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	out := &Table{Schema: prep.schema}
	if preAgg {
		aggregateSweep(in, out, prep.groupIdx, aggs, prep.argIdx, dom)
		return out, nil
	}
	aggregateNaive(in, out, prep.groupIdx, aggs, prep.argIdx, dom)
	return out, nil
}

// AggregateShape resolves an aggregation spec against an input data
// schema without running it: the indices of the grouping columns and
// the output period schema, or the error the operator would report for
// an unknown column.
func AggregateShape(data tuple.Schema, groupBy []string, aggs []algebra.AggSpec) (groupIdx []int, out tuple.Schema, err error) {
	prep, err := prepareAggregate(data, groupBy, aggs)
	if err != nil {
		return nil, tuple.Schema{}, err
	}
	return prep.groupIdx, prep.schema, nil
}

// aggPrep is the compiled form of an aggregation spec: resolved group
// and argument column indices plus the output period schema. It is
// shared by the blocking sweep, the naive split implementation and the
// streaming aggregation iterator.
type aggPrep struct {
	groupIdx []int
	argIdx   []int
	schema   tuple.Schema
}

// prepareAggregate resolves groupBy and aggregation argument columns
// against the input data schema.
func prepareAggregate(data tuple.Schema, groupBy []string, aggs []algebra.AggSpec) (*aggPrep, error) {
	p := &aggPrep{groupIdx: make([]int, len(groupBy)), argIdx: make([]int, len(aggs))}
	for i, g := range groupBy {
		idx := data.Index(g)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown group-by column %q", g)
		}
		p.groupIdx[i] = idx
	}
	outCols := append([]string{}, groupBy...)
	for i, a := range aggs {
		p.argIdx[i] = -1
		if a.Fn != krel.CountStar {
			idx := data.Index(a.Arg)
			if idx < 0 {
				return nil, fmt.Errorf("engine: unknown aggregation column %q", a.Arg)
			}
			p.argIdx[i] = idx
		}
		outCols = append(outCols, a.As)
	}
	p.schema = PeriodSchema(tuple.NewSchema(outCols...))
	return p, nil
}

// aggregateSweep is the pre-aggregated implementation: one endpoint sweep
// per group with incremental accumulators. Adjacent segments with equal
// aggregate values leave as one row (aggSegment), so the output is the
// unique coalesced encoding.
func aggregateSweep(in *Table, out *Table, groupIdx []int, aggs []algebra.AggSpec, argIdx []int, dom interval.Domain) {
	// rowEvent is one endpoint of the input row in.Rows[row].
	type rowEvent struct {
		t     interval.Time
		row   int
		enter bool
	}
	type grp struct {
		group  tuple.Tuple
		events []rowEvent
	}
	global := len(groupIdx) == 0
	groups := make(map[string]*grp)
	// Groups are emitted in first-seen order, not map order, so repeated
	// identical queries stream rows in the same order.
	var order []*grp
	// Reusable scratch key: the group tuple is only projected out (and
	// the key string only materialized) once per distinct group, not per
	// row.
	var scratch []byte
	for i, row := range in.Rows {
		scratch = row.AppendKey(scratch[:0], groupIdx)
		acc, ok := groups[string(scratch)]
		if !ok {
			acc = &grp{group: row.Project(groupIdx)}
			groups[string(scratch)] = acc
			order = append(order, acc)
		}
		iv := in.Interval(row)
		acc.events = append(acc.events,
			rowEvent{t: iv.Begin, row: i, enter: true},
			rowEvent{t: iv.End, row: i, enter: false})
	}
	if global && len(groups) == 0 {
		order = append(order, &grp{group: tuple.Tuple{}})
	}
	for _, g := range order {
		// Among equal times, input row order is the order the events were
		// appended in (a row's begin precedes its end), so same-instant
		// updates — and with them float sums — apply in input order on
		// every run.
		slices.SortFunc(g.events, func(a, b rowEvent) int {
			if c := cmp.Compare(a.t, b.t); c != 0 {
				return c
			}
			return cmp.Compare(a.row, b.row)
		})
		sweepers := make([]*aggSweeper, len(aggs))
		for i, a := range aggs {
			sweepers[i] = newAggSweeper(a.Fn)
		}
		var alive int64
		var held tuple.Tuple // the group's last output row
		emit := func(seg interval.Interval) {
			if !seg.Valid() {
				return
			}
			if alive == 0 && !global {
				return
			}
			if row := aggSegment(held, g.group, sweepers, seg); row != nil {
				out.Rows = append(out.Rows, row)
				held = row
			}
		}
		segStart := dom.Min
		i := 0
		if !global && len(g.events) > 0 {
			segStart = g.events[0].t
		}
		for i < len(g.events) {
			t := g.events[i].t
			emit(interval.Interval{Begin: segStart, End: t})
			for i < len(g.events) && g.events[i].t == t {
				ev := g.events[i]
				if ev.enter {
					alive++
				} else {
					alive--
				}
				row := in.Rows[ev.row]
				for j, sw := range sweepers {
					var arg tuple.Value
					if argIdx[j] >= 0 {
						arg = row[argIdx[j]]
					}
					sw.update(arg, ev.enter)
				}
				i++
			}
			segStart = t
		}
		if global {
			emit(interval.Interval{Begin: segStart, End: dom.Max})
		}
	}
}

// aggSegment is the fused coalesce of both pre-aggregated sweeps. held
// is the group's previous output row, still invisible to any consumer,
// or nil. When held ends where seg begins and carries the aggregate
// values the sweepers report now — equal under tuple.SameKey, the rule
// Coalesce groups rows by — held is extended to cover seg and nil is
// returned; otherwise the new output row for seg is. A group's
// segments are disjoint and carry multiplicity 1, so merging exactly
// the adjacent equal ones yields the unique coalesced encoding (Def
// 8.2).
func aggSegment(held, group tuple.Tuple, sweepers []*aggSweeper, seg interval.Interval) tuple.Tuple {
	if held != nil && rowInterval(held).End == seg.Begin && sameResults(held[len(group):], sweepers) {
		held[len(held)-1] = tuple.Int(seg.End)
		return nil
	}
	// One exact-capacity allocation per output row.
	row := make(tuple.Tuple, 0, len(group)+len(sweepers)+2)
	row = append(row, group...)
	for _, sw := range sweepers {
		row = append(row, sw.result())
	}
	return append(row, tuple.Int(seg.Begin), tuple.Int(seg.End))
}

// sameResults reports whether vals starts with the sweepers' current
// results, value by value under tuple.SameKey.
func sameResults(vals tuple.Tuple, sweepers []*aggSweeper) bool {
	for i, sw := range sweepers {
		if !tuple.SameKey(vals[i], sw.result()) {
			return false
		}
	}
	return true
}

// aggregateNaive materializes the split (Def 8.3) and hash-aggregates.
// For global aggregation it additionally emits neutral rows (count 0,
// NULL aggregates) over the uncovered segments of the domain, which is
// the effect of Fig 4's union with {(null, Tmin, Tmax)}.
func aggregateNaive(in *Table, out *Table, groupIdx []int, aggs []algebra.AggSpec, argIdx []int, dom interval.Domain) {
	global := len(groupIdx) == 0
	split := Split(in, groupIdx)
	type acc struct {
		group  tuple.Tuple
		seg    interval.Interval
		states []*krel.AggState
	}
	newAcc := func(g tuple.Tuple, iv interval.Interval) *acc {
		a := &acc{group: g, seg: iv, states: make([]*krel.AggState, len(aggs))}
		for i, sp := range aggs {
			a.states[i] = krel.NewAggState(sp.Fn)
		}
		return a
	}
	groups := make(map[string]*acc)
	var scratch []byte
	for _, row := range split.Rows {
		iv := split.Interval(row)
		scratch = appendSegKey(scratch[:0], row, groupIdx, iv)
		a, ok := groups[string(scratch)]
		if !ok {
			a = newAcc(row.Project(groupIdx), iv)
			groups[string(scratch)] = a
		}
		for i := range aggs {
			var arg tuple.Value
			if argIdx[i] >= 0 {
				arg = row[argIdx[i]]
			}
			a.states[i].AddValue(arg, 1)
		}
	}
	if global {
		// Gap segments: elementary intervals of the domain not covered by
		// any input row still produce a (0 / NULL) result row.
		pts := []interval.Time{dom.Min, dom.Max}
		for _, row := range in.Rows {
			iv := in.Interval(row)
			pts = append(pts, iv.Begin, iv.End)
		}
		pts = interval.DedupTimes(pts)
		for i := 0; i+1 < len(pts); i++ {
			seg := interval.Interval{Begin: pts[i], End: pts[i+1]}
			// Global aggregation has no group columns, so the segment key
			// degenerates to the '@'-prefixed endpoint encoding.
			scratch = appendSegKey(scratch[:0], nil, groupIdx, seg)
			if _, covered := groups[string(scratch)]; !covered {
				groups[string(scratch)] = newAcc(tuple.Tuple{}, seg)
			}
		}
	}
	for _, a := range groups {
		row := a.group.Clone()
		for _, st := range a.states {
			row = append(row, st.Result())
		}
		row = append(row, tuple.Int(a.seg.Begin), tuple.Int(a.seg.End))
		out.Rows = append(out.Rows, row)
	}
}

// appendSegKey appends the (group, segment) composite key of the naive
// hash aggregation — the canonical group-columns key encoding, '@', and
// the two interval endpoints — to b, replacing the old
// `g.Key() + "@" + endpoints.Key()` concatenation that allocated two
// strings per input row. row may be nil when groupIdx is empty (the
// global-aggregation gap segments).
func appendSegKey(b []byte, row tuple.Tuple, groupIdx []int, iv interval.Interval) []byte {
	b = row.AppendKey(b, groupIdx)
	b = append(b, '@')
	b = strconv.AppendInt(b, iv.Begin, 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, iv.End, 10)
	return b
}

// aggSweeper incrementally maintains one aggregation function under row
// insertions and deletions — the per-segment evaluation of the
// pre-aggregated split (§9).
type aggSweeper struct {
	fn     krel.AggFunc
	count  int64   // non-null rows (all rows for CountStar)
	sumI   int64   // integer part of the running sum
	sumF   float64 // float part of the running sum
	floats int64   // float values in the sum now; the sum is a Float iff > 0
	// vals maintains the multiset of current values for min/max, as a
	// sorted slice of distinct values with counts.
	vals   []tuple.Value
	counts []int64
}

func newAggSweeper(fn krel.AggFunc) *aggSweeper { return &aggSweeper{fn: fn} }

func (a *aggSweeper) update(v tuple.Value, enter bool) {
	sign := int64(1)
	if !enter {
		sign = -1
	}
	if a.fn == krel.CountStar {
		a.count += sign
		return
	}
	if v.IsNull() {
		return
	}
	a.count += sign
	switch a.fn {
	case krel.Sum, krel.Avg:
		if v.Kind() == tuple.KindFloat {
			a.floats += sign
			a.sumF += float64(sign) * v.AsFloat()
			if a.floats == 0 {
				// No float is left, so the float part is exactly 0,
				// whatever rounding the retractions left behind.
				a.sumF = 0
			}
		} else {
			a.sumI += sign * v.AsInt()
		}
	case krel.Min, krel.Max:
		i := sort.Search(len(a.vals), func(i int) bool { return tuple.Compare(a.vals[i], v) >= 0 })
		if i < len(a.vals) && tuple.Compare(a.vals[i], v) == 0 {
			a.counts[i] += sign
			if a.counts[i] == 0 {
				a.vals = append(a.vals[:i], a.vals[i+1:]...)
				a.counts = append(a.counts[:i], a.counts[i+1:]...)
			}
			return
		}
		a.vals = append(a.vals, tuple.Null)
		copy(a.vals[i+1:], a.vals[i:])
		a.vals[i] = v
		a.counts = append(a.counts, 0)
		copy(a.counts[i+1:], a.counts[i:])
		a.counts[i] = 1
	}
}

func (a *aggSweeper) result() tuple.Value {
	switch a.fn {
	case krel.CountStar, krel.Count:
		return tuple.Int(a.count)
	case krel.Sum:
		if a.count == 0 {
			return tuple.Null
		}
		if a.floats > 0 {
			return tuple.Float(krel.QuantizeFloat(a.sumF + float64(a.sumI)))
		}
		return tuple.Int(a.sumI)
	case krel.Avg:
		if a.count == 0 {
			return tuple.Null
		}
		return tuple.Float(krel.QuantizeFloat((a.sumF + float64(a.sumI)) / float64(a.count)))
	case krel.Min:
		if len(a.vals) == 0 {
			return tuple.Null
		}
		return a.vals[0]
	case krel.Max:
		if len(a.vals) == 0 {
			return tuple.Null
		}
		return a.vals[len(a.vals)-1]
	default:
		panic("engine: unknown aggregation function")
	}
}
