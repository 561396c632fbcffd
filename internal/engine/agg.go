package engine

import (
	"fmt"
	"slices"
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
// aggregation: the sweep kernel's aggregate set (sweep.go) sorts group
// endpoints instead of materialized split rows, and the result is
// already the unique coalesced encoding. Without it the operator
// hash-aggregates the materialized Split (Def 8.3) — the naive ablation
// baseline, one row per elementary segment.
func TemporalAggregate(in *Table, groupBy []string, aggs []algebra.AggSpec, preAgg bool, dom interval.Domain) (*Table, error) {
	prep, err := prepareAggregate(in.DataSchema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	rows, err := aggregate(nil, in, prep, aggs, preAgg, dom)
	return &Table{Schema: prep.schema, Rows: rows}, err
}

// NewBlockAggIter is TemporalAggregate over rows read through m as the
// data schema data, as an iterator that holds the result rows, which
// MaxState reports. gov (nil for none) is charged for the pre-aggregated
// sweep's scratch while the sweep runs, and the aggregation fails with
// its error when it refuses.
func NewBlockAggIter(gov *Governor, in *Table, data tuple.Schema, m ColMap, groupBy []string, aggs []algebra.AggSpec, preAgg bool, dom interval.Domain) (RowIter, error) {
	prep, err := prepareAggregate(data, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	rows, err := aggregate(gov, in, prep.through(m), aggs, preAgg, dom)
	if err != nil {
		return nil, err
	}
	return &runIter{schema: prep.schema, out: sweepOut{rows: rows}}, nil
}

// aggregate runs the aggregation prep describes over in's rows; gov is
// charged for the pre-aggregated sweep's scratch.
func aggregate(gov *Governor, in *Table, prep *aggPrep, aggs []algebra.AggSpec, preAgg bool, dom interval.Domain) ([]tuple.Tuple, error) {
	if preAgg {
		out, err := newBlockSweep(aggKernel(prep, aggs, dom), prep.groupIdx).runs(gov, in.Rows)
		return out.rows, err
	}
	return aggregateNaive(in, prep.groupIdx, aggs, prep.argIdx, dom), nil
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
// shared by both sweep drivers and the naive split implementation.
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

// through returns p for rows that hold the data columns at m.
func (p *aggPrep) through(m ColMap) *aggPrep {
	return &aggPrep{groupIdx: m.Of(p.groupIdx), argIdx: m.Of(p.argIdx), schema: p.schema}
}

// aggregateNaive materializes the split (Def 8.3) and hash-aggregates.
// For global aggregation it additionally emits neutral rows (count 0,
// NULL aggregates) over the uncovered segments of the domain, which is
// the effect of Fig 4's union with {(null, Tmin, Tmax)}.
func aggregateNaive(in *Table, groupIdx []int, aggs []algebra.AggSpec, argIdx []int, dom interval.Domain) []tuple.Tuple {
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
	out := make([]tuple.Tuple, 0, len(groups))
	for _, a := range groups {
		row := a.group.Clone()
		for _, st := range a.states {
			row = append(row, st.Result())
		}
		row = append(row, tuple.Int(a.seg.Begin), tuple.Int(a.seg.End))
		out = append(out, row)
	}
	return out
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

// reset empties a for fn, keeping its min/max buffers.
func (a *aggSweeper) reset(fn krel.AggFunc) {
	*a = aggSweeper{fn: fn, vals: a.vals[:0], counts: a.counts[:0]}
}

// update applies one row's value v entering (sign +1) or leaving (−1).
func (a *aggSweeper) update(v tuple.Value, sign int64) {
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
		i, found := slices.BinarySearchFunc(a.vals, v, tuple.Compare)
		if !found {
			a.vals = slices.Insert(a.vals, i, v)
			a.counts = slices.Insert(a.counts, i, 0)
		}
		if a.counts[i] += sign; a.counts[i] == 0 {
			a.vals = slices.Delete(a.vals, i, i+1)
			a.counts = slices.Delete(a.counts, i, i+1)
		}
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
