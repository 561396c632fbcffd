package engine

import (
	"math"
	"math/bits"

	"snapk/internal/algebra"
	"snapk/internal/interval"
)

// This file is the statistics side of the planner and executor: per-table
// interval statistics (row count, distinct data tuples, min/max
// interval endpoints, a small begin-endpoint histogram) cached on Table
// next to the sortedness metadata, and the plan-wide cardinality
// estimator built on them. Estimates drive the hash join's build side
// and initial table size (DB.JoinStrategy) and annotate every EXPLAIN
// node with est_rows. They are heuristics: useful for ordering
// decisions, never for correctness.

// HistBuckets is the resolution of the per-table begin-endpoint
// histogram: small enough to compute and cache cheaply, fine enough to
// rank time-window selectivities.
const HistBuckets = 16

// TableStats is one table's cached interval statistics. A computed
// stats value is immutable: mutating table methods drop the cache
// rather than patching it, and the next Stats call recomputes.
type TableStats struct {
	// Rows is the stored row count (counting duplicates).
	Rows int64
	// MinBegin and MaxEnd bound the stored validity intervals; only
	// meaningful when Rows > 0.
	MinBegin interval.Time
	MaxEnd   interval.Time
	// DistinctData counts distinct data tuples (period attributes
	// excluded) — the group-key/join-key cardinality proxy.
	DistinctData int64
	// AvgLen is the mean interval length, used to shift the begin
	// histogram when estimating overlap (a row overlaps a window ending
	// after its begin only if it also lives long enough).
	AvgLen float64
	// Hist counts row begins per bucket over [MinBegin, MaxEnd).
	Hist [HistBuckets]int64
}

// Bounds returns the min/max endpoint envelope of the stored intervals,
// or ok=false for an empty table.
func (s *TableStats) Bounds() (interval.Interval, bool) {
	if s == nil || s.Rows == 0 {
		return interval.Interval{}, false
	}
	return interval.Interval{Begin: s.MinBegin, End: s.MaxEnd}, true
}

// fracBeginBelow estimates the fraction of rows whose begin is < t from
// the histogram, interpolating linearly inside the covering bucket.
func (s *TableStats) fracBeginBelow(t interval.Time) float64 {
	if s.Rows == 0 {
		return 0
	}
	span := distance(s.MinBegin, s.MaxEnd)
	if span == 0 {
		return 1
	}
	if t <= s.MinBegin {
		return 0
	}
	if t >= s.MaxEnd {
		return 1
	}
	pos := float64(distance(s.MinBegin, t)) / float64(span) * HistBuckets
	bucket := int(pos)
	if bucket >= HistBuckets {
		bucket = HistBuckets - 1
	}
	var below int64
	for i := 0; i < bucket; i++ {
		below += s.Hist[i]
	}
	frac := float64(below) + float64(s.Hist[bucket])*(pos-float64(bucket))
	return frac / float64(s.Rows)
}

// WindowSelectivity estimates the fraction of rows whose validity
// interval overlaps w. A row [b, e) overlaps [c, d) iff b < d and
// e > c; the begin histogram bounds the first condition directly and
// approximates the second by shifting c left by the mean interval
// length (rows beginning before c − AvgLen have, on average, ended).
func (s *TableStats) WindowSelectivity(w interval.Interval) float64 {
	if s == nil || s.Rows == 0 || !w.Valid() {
		return 0
	}
	if b, ok := s.Bounds(); !ok || !b.Overlaps(w) {
		return 0
	}
	frac := s.fracBeginBelow(w.End) - s.fracBeginBelow(shiftBack(w.Begin, s.AvgLen))
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Stats returns the table's interval statistics, computing and caching
// them on first use. The cache is an atomic pointer: concurrent
// planners may race to compute, but both compute the same immutable
// value and every reader sees a complete one — no lock on the read
// path, no torn stats under -race. Mutating methods (Append, SetRows,
// InvalidateMeta) drop the cache; Sort and SortByEndpoints keep it,
// since every statistic is a multiset property invariant under row
// permutation.
func (t *Table) Stats() *TableStats {
	if s := t.stats.Load(); s != nil {
		return s
	}
	s := t.computeStats()
	t.stats.Store(s)
	return s
}

func (t *Table) computeStats() *TableStats {
	s := &TableStats{Rows: int64(len(t.Rows))}
	if s.Rows == 0 {
		return s
	}
	distinct := make(map[string]struct{})
	n := t.DataArity()
	var scratch []byte
	var lenSum float64
	for i, row := range t.Rows {
		iv := rowInterval(row)
		if i == 0 || iv.Begin < s.MinBegin {
			s.MinBegin = iv.Begin
		}
		if i == 0 || iv.End > s.MaxEnd {
			s.MaxEnd = iv.End
		}
		lenSum += float64(distance(iv.Begin, iv.End))
		scratch = row[:n].AppendKey(scratch[:0], nil)
		distinct[string(scratch)] = struct{}{}
	}
	s.DistinctData = int64(len(distinct))
	s.AvgLen = lenSum / float64(s.Rows)
	span := distance(s.MinBegin, s.MaxEnd)
	for _, row := range t.Rows {
		bucket := 0
		if span > 0 {
			// (begin − MinBegin)·HistBuckets / span, with the product in
			// 128 bits: it passes 2⁶⁴ once the begins spread past 2⁶⁰.
			d := min(distance(s.MinBegin, rowInterval(row).Begin), span-1)
			hi, lo := bits.Mul64(d, HistBuckets)
			q, _ := bits.Div64(hi, lo, span)
			bucket = int(q)
		}
		s.Hist[bucket]++
	}
	return s
}

// distance returns e − b, exact over the whole int64 range, or 0 when
// e <= b.
func distance(b, e interval.Time) uint64 {
	if e <= b {
		return 0
	}
	return uint64(e) - uint64(b)
}

// shiftBack returns t − d for a length d ≥ 0, saturating at the least
// Time instead of wrapping.
func shiftBack(t interval.Time, d float64) interval.Time {
	if d >= float64(distance(math.MinInt64, t)) {
		return math.MinInt64
	}
	return interval.Time(uint64(t) - uint64(d))
}

// EndpointBounds returns the min/max endpoint envelope of the stored
// intervals (the zone map a windowed scan is pruned against), or
// ok=false for an empty table. Tables loaded through Append answer from
// incrementally maintained metadata in O(1); others compute (and cache)
// the full statistics once.
func (t *Table) EndpointBounds() (interval.Interval, bool) {
	if len(t.Rows) == 0 {
		return interval.Interval{}, false
	}
	if t.meta.bounds == propTrue {
		return interval.Interval{Begin: t.meta.minBegin, End: t.meta.maxEnd}, true
	}
	return t.Stats().Bounds()
}

// Predicate selectivity heuristics — the textbook defaults. They only
// rank plans (build sides, worker counts), so crude constants beat no
// estimate.
const (
	selEq      = 0.1
	selCmp     = 1.0 / 3
	selNe      = 0.9
	selIsNull  = 0.1
	selDefault = 0.5
)

// predSelectivity estimates the fraction of rows a predicate passes.
func predSelectivity(e algebra.Expr) float64 {
	switch n := e.(type) {
	case algebra.Const:
		if algebra.Truthy(n.Val) {
			return 1
		}
		return 0
	case algebra.Not:
		return 1 - predSelectivity(n.E)
	case algebra.IsNullExpr:
		return selIsNull
	case algebra.BinOp:
		switch n.Op {
		case algebra.OpAnd:
			return predSelectivity(n.L) * predSelectivity(n.R)
		case algebra.OpOr:
			l, r := predSelectivity(n.L), predSelectivity(n.R)
			return l + r - l*r
		case algebra.OpEq:
			return selEq
		case algebra.OpNe:
			return selNe
		case algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe:
			return selCmp
		}
	}
	return selDefault
}

// estScale scales a non-negative input estimate by a selectivity
// fraction, clamped to [1, in] — a selection never grows its input, and
// rounding a non-empty estimate to zero would make every plan above it
// look free.
func estScale(in int64, frac float64) int64 {
	if in <= 0 {
		return 0
	}
	// The comparison is in float64: near MaxInt64 the product rounds up
	// to 2⁶³, which no int64 holds.
	f := float64(in)*frac + 0.5
	if f >= float64(in) {
		return in
	}
	return max(int64(f), 1)
}

// satMul returns a·b for non-negative estimates, saturating at
// MaxInt64 instead of wrapping.
func satMul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// satAdd returns a+b for non-negative estimates, saturating at
// MaxInt64 instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// EstimateRows estimates the output cardinality of p from stored-table
// statistics, or -1 when p references an unknown table. Scans are
// exact; everything above is heuristic (Filter by predicate
// selectivity, joins by the distinct-key rule |L|·|R|/max(d_L, d_R),
// windows by the endpoint histogram, aggregation by split fan-out).
// Every product and sum saturates at MaxInt64, so a deeper plan never
// estimates fewer rows than the join below it. The estimates drive the
// hash join's build side and pre-sizing (JoinStrategy) and annotate
// every EXPLAIN node with est_rows.
func (db *DB) EstimateRows(p Plan) int64 {
	switch n := p.(type) {
	case ScanP:
		t, err := db.Table(n.Name)
		if err != nil {
			return -1
		}
		return int64(t.Len())
	case FilterP:
		in := db.EstimateRows(n.In)
		if in < 0 {
			return -1
		}
		return estScale(in, predSelectivity(n.Pred))
	case ProjectP:
		return db.EstimateRows(n.In)
	case WindowP:
		in := db.EstimateRows(n.In)
		if in < 0 {
			return -1
		}
		return estScale(in, db.windowSelectivity(n.T, n.In))
	case UnionP:
		l, r := db.EstimateRows(n.L), db.EstimateRows(n.R)
		if l < 0 || r < 0 {
			return -1
		}
		return satAdd(l, r)
	case JoinP:
		return db.estimateJoin(n)
	case DiffP:
		// The monus only removes: the left input bounds the output.
		return db.EstimateRows(n.L)
	case AggP:
		in := db.EstimateRows(n.In)
		if in < 0 {
			return -1
		}
		if len(n.GroupBy) == 0 {
			// The global split emits one row per segment between
			// consecutive endpoints, gap rows included: at most 2·rows+1
			// segments, capped by the domain size.
			out := satAdd(satMul(2, in), 1)
			if s := distance(db.dom.Min, db.dom.Max); uint64(out) > s {
				out = int64(s)
			}
			return out
		}
		// Grouped: one run of segments per group key. Distinct-tuple
		// stats bound the key count when the input chain exposes them.
		if d := db.estimateDistinct(n.In); d >= 0 {
			out := max(satMul(2, d), 1)
			if in > 0 {
				out = min(out, satMul(2, in))
			}
			return out
		}
		return estScale(in, selCmp)
	case CoalesceP:
		// Coalescing only merges: the input bounds the output.
		return db.EstimateRows(n.In)
	default:
		return -1
	}
}

// estimateJoin applies the distinct-key join estimate when an equality
// conjunct exists (|L|·|R| / max(d_L, d_R), with distinct data tuples
// standing in for distinct keys), and a fixed overlap selectivity for
// the interval-overlap sweep fallback.
func (db *DB) estimateJoin(n JoinP) int64 {
	l, r := db.EstimateRows(n.L), db.EstimateRows(n.R)
	if l < 0 || r < 0 {
		return -1
	}
	if l == 0 || r == 0 {
		return 0
	}
	if prep, err := db.PlanJoinPrep(n); err != nil || !prep.HasEquiKey() {
		// Overlap sweep: temporal selectivity only. Assume a tenth of
		// the cross product overlaps.
		return estScale(satMul(l, r), selEq)
	}
	d := db.estimateDistinct(n.L)
	if rd := db.estimateDistinct(n.R); rd > d {
		d = rd
	}
	if d <= 0 {
		// No key statistics: a foreign-key-shaped join keeps roughly the
		// larger side's cardinality.
		if l > r {
			return l
		}
		return r
	}
	// l·r/d with the product in 128 bits, saturating when the quotient
	// passes MaxInt64.
	hi, lo := bits.Mul64(uint64(l), uint64(r))
	if hi >= uint64(d) {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(d))
	return max(int64(min(q, math.MaxInt64)), 1)
}

// estimateDistinct bounds the number of distinct data tuples a plan
// produces, or -1 when no stored-table statistics apply. Filter and
// Window only remove rows, so the base table's distinct count (capped
// by the node's own row estimate) stays an upper bound; Project
// rewrites the data columns, ending the chain.
func (db *DB) estimateDistinct(p Plan) int64 {
	switch n := p.(type) {
	case ScanP:
		t, err := db.Table(n.Name)
		if err != nil {
			return -1
		}
		return t.Stats().DistinctData
	case FilterP:
		return db.capDistinct(db.estimateDistinct(n.In), p)
	case WindowP:
		return db.capDistinct(db.estimateDistinct(n.In), p)
	case CoalesceP:
		return db.estimateDistinct(n.In)
	default:
		return -1
	}
}

func (db *DB) capDistinct(d int64, p Plan) int64 {
	if d < 0 {
		return -1
	}
	if est := db.EstimateRows(p); est >= 0 && est < d {
		return est
	}
	return d
}

// windowSelectivity estimates the fraction of a plan's rows that
// overlap window T: from the base table's endpoint histogram when the
// input chain reaches a scan, otherwise from the window's share of the
// whole time domain.
func (db *DB) windowSelectivity(T interval.Interval, in Plan) float64 {
	if !T.Valid() {
		return 0
	}
	if s := db.baseStats(in); s != nil {
		return s.WindowSelectivity(T)
	}
	w, ok := T.Intersect(db.dom.All())
	size := distance(db.dom.Min, db.dom.Max)
	if !ok || size == 0 {
		return 0
	}
	return float64(distance(w.Begin, w.End)) / float64(size)
}

// baseStats walks through the row-preserving operators to the
// underlying stored table's statistics, or nil when the chain ends
// elsewhere.
func (db *DB) baseStats(p Plan) *TableStats {
	if t := db.baseTable(p); t != nil {
		return t.Stats()
	}
	return nil
}

// baseTable walks through Filter, Project and Window — which only drop
// or clip rows — to the stored table under p, or nil when the chain ends
// elsewhere. The estimate of such a chain never exceeds that table's
// row count.
func (db *DB) baseTable(p Plan) *Table {
	switch n := p.(type) {
	case ScanP:
		t, err := db.Table(n.Name)
		if err != nil {
			return nil
		}
		return t
	case FilterP:
		return db.baseTable(n.In)
	case ProjectP:
		return db.baseTable(n.In)
	case WindowP:
		return db.baseTable(n.In)
	default:
		return nil
	}
}
