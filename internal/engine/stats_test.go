package engine

// Tests for the planner's statistics layer: the cached per-table
// interval statistics (values, invalidation discipline, the O(1)
// endpoint-bounds metadata path) and the plan-wide cardinality
// estimator that consumes them.

import (
	"fmt"
	"math"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

func statsTable() *Table {
	t := NewTable(tuple.NewSchema("k", "v"))
	// 8 rows, 4 distinct data tuples, begins 0..7, all length 4.
	for i := int64(0); i < 8; i++ {
		t.Append(tuple.Tuple{tuple.Int(i % 4), tuple.Int(i % 4)}, interval.New(i, i+4), 1)
	}
	return t
}

func TestTableStatsValues(t *testing.T) {
	tb := statsTable()
	s := tb.Stats()
	if s.Rows != 8 || s.DistinctData != 4 {
		t.Fatalf("rows=%d distinct=%d, want 8/4", s.Rows, s.DistinctData)
	}
	if s.MinBegin != 0 || s.MaxEnd != 11 {
		t.Fatalf("envelope [%d, %d), want [0, 11)", s.MinBegin, s.MaxEnd)
	}
	if s.AvgLen != 4 {
		t.Fatalf("AvgLen = %v, want 4", s.AvgLen)
	}
	var histSum int64
	for _, c := range s.Hist {
		histSum += c
	}
	if histSum != s.Rows {
		t.Fatalf("histogram counts %d begins, want %d", histSum, s.Rows)
	}
	// Selectivity sanity: the whole envelope keeps everything, a disjoint
	// window nothing, a left slice something in between.
	if got := s.WindowSelectivity(interval.New(0, 11)); got != 1 {
		t.Fatalf("full-envelope selectivity = %v, want 1", got)
	}
	if got := s.WindowSelectivity(interval.New(50, 60)); got != 0 {
		t.Fatalf("disjoint-window selectivity = %v, want 0", got)
	}
	part := s.WindowSelectivity(interval.New(0, 3))
	if part <= 0 || part >= 1 {
		t.Fatalf("partial-window selectivity = %v, want in (0, 1)", part)
	}
}

func TestTableStatsEmptyTable(t *testing.T) {
	tb := NewTable(tuple.NewSchema("k"))
	s := tb.Stats()
	if s.Rows != 0 {
		t.Fatalf("empty table stats claim %d rows", s.Rows)
	}
	if _, ok := s.Bounds(); ok {
		t.Fatal("empty table must not report an envelope")
	}
	if _, ok := tb.EndpointBounds(); ok {
		t.Fatal("EndpointBounds on an empty table must report ok=false")
	}
}

// Stats are cached until a mutating method drops them; the computed
// value itself is immutable.
func TestTableStatsInvalidation(t *testing.T) {
	tb := statsTable()
	s1 := tb.Stats()
	if tb.Stats() != s1 {
		t.Fatal("repeated Stats calls must return the cached pointer")
	}
	// Row-permuting methods keep the cache: every statistic is a multiset
	// property.
	tb.SortByEndpoints()
	if tb.Stats() != s1 {
		t.Fatal("SortByEndpoints must keep the stats cache")
	}
	tb.Append(tuple.Tuple{tuple.Int(9), tuple.Int(9)}, interval.New(20, 30), 1)
	s2 := tb.Stats()
	if s2 == s1 {
		t.Fatal("Append must drop the stats cache")
	}
	if s2.Rows != 9 || s2.MaxEnd != 30 || s2.DistinctData != 5 {
		t.Fatalf("recomputed stats rows=%d maxEnd=%d distinct=%d, want 9/30/5", s2.Rows, s2.MaxEnd, s2.DistinctData)
	}
	tb.SetRows(tb.Rows[:2])
	if tb.Stats() == s2 {
		t.Fatal("SetRows must drop the stats cache")
	}
	s3 := tb.Stats()
	tb.InvalidateMeta()
	if tb.Stats() == s3 {
		t.Fatal("InvalidateMeta must drop the stats cache")
	}
}

// EndpointBounds answers from the incrementally maintained metadata on
// the Append load path — no O(n) statistics pass. Proven with the same
// corruption trick as the sortedness tests: a direct Rows write the
// metadata cannot see leaves the recorded envelope in force.
func TestEndpointBoundsUsesMetadata(t *testing.T) {
	tb := statsTable()
	if tb.meta.bounds != propTrue {
		t.Fatal("Append loads must maintain the bounds metadata")
	}
	env, ok := tb.EndpointBounds()
	if !ok || env != interval.New(0, 11) {
		t.Fatalf("EndpointBounds = %v, %v; want [0, 11)", env, ok)
	}
	widened := clipRow(new(rowArena), tb.Rows[0], interval.New(-50, 90))
	tb.Rows[0] = widened // direct write, no invalidation
	if env, _ := tb.EndpointBounds(); env != interval.New(0, 11) {
		t.Fatalf("metadata miss: EndpointBounds rescanned, got %v", env)
	}
	tb.InvalidateMeta()
	if env, _ := tb.EndpointBounds(); env != interval.New(-50, 90) {
		t.Fatalf("after InvalidateMeta, EndpointBounds must see the new envelope, got %v", env)
	}
}

// The histogram bucket, the envelope span and the length sum are exact
// however far apart the endpoints lie: a begin spread past 2⁵⁹ overflows
// a 64-bit bucket product, and a [MinInt64, MaxInt64) row overflows a
// 64-bit span and length.
func TestTableStatsWideSpread(t *testing.T) {
	const far = 3 << 59
	tb := NewTable(tuple.NewSchema("k"))
	tb.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 1)
	tb.Append(tuple.Tuple{tuple.Int(1)}, interval.New(far, far+5), 1)
	s := tb.Stats()
	if s.Hist[0] != 1 || s.Hist[HistBuckets-1] != 1 || s.AvgLen != 7.5 {
		t.Fatalf("hist %v, AvgLen %v; want one begin in each end bucket and 7.5", s.Hist, s.AvgLen)
	}
	if got := s.WindowSelectivity(interval.New(far/2, far+5)); got != 0.5 {
		t.Fatalf("selectivity of a window over the far row = %v, want 0.5", got)
	}

	full := NewTable(tuple.NewSchema("k"))
	full.Append(tuple.Tuple{tuple.Int(1)}, interval.New(math.MinInt64, math.MaxInt64), 1)
	full.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 1)
	s = full.Stats()
	if s.Hist[0] != 1 || s.Hist[HistBuckets/2] != 1 {
		t.Fatalf("hist %v: want begins in bucket 0 and at the domain's middle", s.Hist)
	}
	if s.AvgLen < 1<<62 {
		t.Fatalf("AvgLen = %v, want about 2⁶³", s.AvgLen)
	}
}

// Over the widest domain snapk.New accepts, the estimator's shifts and
// sizes must not wrap: a window covering every row keeps them all, the
// global split's domain cap is 2⁶⁴ − 1 points rather than −1, and the
// domain-share fallback gives half the domain half the rows.
func TestEstimatesAtInt64Limits(t *testing.T) {
	db := NewDB(interval.NewDomain(math.MinInt64, math.MaxInt64))
	tb := db.CreateTable("t", tuple.NewSchema("k"))
	for i := int64(0); i < 100; i++ {
		tb.Append(tuple.Tuple{tuple.Int(i)}, interval.New(math.MinInt64+i, math.MinInt64+i+10), 1)
	}
	scan := ScanP{Name: "t"}
	all := interval.New(math.MinInt64, math.MinInt64+1000)
	if got := tb.Stats().WindowSelectivity(all); got != 1 {
		t.Fatalf("selectivity of a window over every row = %v, want 1", got)
	}
	if got := db.EstimateRows(WindowP{T: all, In: scan}); got != 100 {
		t.Fatalf("window estimate %d, want 100", got)
	}
	agg := AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}, PreAgg: true, In: scan}
	if got := db.EstimateRows(agg); got != 201 {
		t.Fatalf("global aggregation estimate %d, want 201", got)
	}
	if got := db.EstimateRows(WindowP{T: interval.New(math.MinInt64, 0), In: agg}); got != 101 {
		t.Fatalf("window over the aggregation estimates %d, want 101 (half the domain)", got)
	}

	// Comma joins of 20,000-row tables: the 5-way estimate is 3.2e17, and
	// a 6- or 7-way product passes MaxInt64. Deeper joins, and a global
	// aggregation over them, must saturate rather than wrap.
	join := Plan(wideTable(db, 0))
	var fiveWay int64
	for i := 1; i < 7; i++ {
		join = JoinP{L: join, R: wideTable(db, i), Pred: algebra.BoolC(true)}
		if i < 4 {
			continue
		}
		if i == 4 {
			if fiveWay = db.EstimateRows(join); fiveWay < 3e17 {
				t.Fatalf("5-way join estimates %d, want about 3.2e17", fiveWay)
			}
		}
		global := AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}, PreAgg: true, In: join}
		for what, got := range map[string]int64{
			"join":                       db.EstimateRows(join),
			"global aggregation over it": db.EstimateRows(global),
			"union of two copies of it":  db.EstimateRows(UnionP{L: join, R: join}),
		} {
			if got < fiveWay {
				t.Fatalf("%d-way %s estimates %d, below the 5-way join's %d", i+1, what, got, fiveWay)
			}
		}
	}
}

// wideTable registers table t<i> — 20,000 rows, one column c<i> — in db
// and returns its scan.
func wideTable(db *DB, i int) ScanP {
	name := fmt.Sprintf("t%d", i)
	tb := db.CreateTable(name, tuple.NewSchema(fmt.Sprintf("c%d", i)))
	for j := int64(0); j < 20000; j++ {
		tb.Append(tuple.Tuple{tuple.Int(j)}, interval.New(j, j+10), 1)
	}
	return ScanP{Name: name}
}

// TestJoinStrategyHintBoundsBuildRows: the pre-size hint is the build
// side's estimate only where that estimate bounds the build rows. A
// hash join whose build side is an overlap join of two 20,000-row
// tables estimates 4e7 rows there; sizing the build table by it would
// allocate far beyond the rows, outside the memory budget.
func TestJoinStrategyHintBoundsBuildRows(t *testing.T) {
	db := NewDB(interval.NewDomain(0, 1<<20))
	a, b, c, d := wideTable(db, 0), wideTable(db, 1), wideTable(db, 2), wideTable(db, 3)
	overlap := func(l, r Plan) JoinP { return JoinP{L: l, R: r, Pred: algebra.BoolC(true)} }
	hint := func(n JoinP) int64 {
		t.Helper()
		prep, err := db.PlanJoinPrep(n)
		if err != nil {
			t.Fatal(err)
		}
		hash, _, h := db.JoinStrategy(n, prep)
		if !hash {
			t.Fatalf("equi join must run as a hash join: %s", n)
		}
		return h
	}
	key := algebra.Eq(algebra.Col("c0"), algebra.Col("c2"))

	both := JoinP{L: overlap(a, b), R: overlap(c, d), Pred: key}
	if est := db.EstimateRows(both.R); est != 40_000_000 {
		t.Fatalf("overlap join estimates %d, want 4e7", est)
	}
	if h := hint(both); h > 40_000 {
		t.Fatalf("hint %d for an overlap-join build side, want at most 40,000", h)
	}

	// A filtered scan builds: its estimate is a bound, and it is the hint.
	filtered := FilterP{Pred: algebra.Lt(algebra.Col("c2"), algebra.IntC(100)), In: c}
	scanSide := JoinP{L: overlap(a, b), R: filtered, Pred: key}
	if h := hint(scanSide); h != db.EstimateRows(filtered) || h <= 0 || h > 20000 {
		t.Fatalf("hint %d for a filtered scan, want its estimate %d", h, db.EstimateRows(filtered))
	}
}

func TestCloneCarriesStats(t *testing.T) {
	tb := statsTable()
	s := tb.Stats()
	if tb.Clone().Stats() != s {
		t.Fatal("Clone must share the stats of the shared rows")
	}
}

func estimateDB() *DB {
	db := NewDB(interval.NewDomain(0, 1000))
	big := db.CreateTable("big", tuple.NewSchema("k", "v"))
	// 100 rows over 10 distinct data tuples (i%5 is determined by i%10).
	for i := int64(0); i < 100; i++ {
		big.Append(tuple.Tuple{tuple.Int(i % 10), tuple.Int(i % 5)}, interval.New(i, i+5), 1)
	}
	small := db.CreateTable("small", tuple.NewSchema("k", "w"))
	for i := int64(0); i < 10; i++ {
		small.Append(tuple.Tuple{tuple.Int(i), tuple.Int(i)}, interval.New(i*3, i*3+8), 1)
	}
	return db
}

func TestEstimateRowsPerNode(t *testing.T) {
	db := estimateDB()
	big, small := ScanP{Name: "big"}, ScanP{Name: "small"}

	if got := db.EstimateRows(big); got != 100 {
		t.Fatalf("scan estimate %d, want exact 100", got)
	}
	if got := db.EstimateRows(ScanP{Name: "missing"}); got != -1 {
		t.Fatalf("unknown table estimate %d, want -1", got)
	}

	filter := FilterP{Pred: algebra.Eq(algebra.Col("k"), algebra.IntC(3)), In: big}
	f := db.EstimateRows(filter)
	if f <= 0 || f >= 100 {
		t.Fatalf("filter estimate %d, want in (0, 100)", f)
	}
	// A zero-selectivity estimate over a non-empty input clamps to 1:
	// rounding to zero would make every plan above it look free.
	if got := db.EstimateRows(FilterP{Pred: algebra.BoolC(false), In: big}); got != 1 {
		t.Fatalf("FALSE filter estimate %d, want the clamp floor 1", got)
	}

	if got := db.EstimateRows(ProjectP{Exprs: []algebra.NamedExpr{{Name: "k", E: algebra.Col("k")}}, In: big}); got != 100 {
		t.Fatalf("project estimate %d, want pass-through 100", got)
	}
	if got := db.EstimateRows(UnionP{L: big, R: small}); got != 110 {
		t.Fatalf("union estimate %d, want 110", got)
	}
	if got := db.EstimateRows(DiffP{L: big, R: small}); got != 100 {
		t.Fatalf("diff estimate %d, want the left bound 100", got)
	}
	if got := db.EstimateRows(CoalesceP{In: big}); got != 100 {
		t.Fatalf("coalesce estimate %d, want the input bound 100", got)
	}

	// Equi join: |L|·|R| / max(d_L, d_R) = 100·10/10.
	equi := JoinP{L: big, R: small, Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k"))}
	if got := db.EstimateRows(equi); got != 100 {
		t.Fatalf("equi-join estimate %d, want 100", got)
	}
	// Overlap sweep: a fixed fraction of the cross product.
	sweep := JoinP{L: big, R: small, Pred: algebra.BoolC(true)}
	if got := db.EstimateRows(sweep); got != 100 {
		t.Fatalf("sweep-join estimate %d, want 100 (10%% of 1000)", got)
	}
	// A join over an unknown table is unknown.
	if got := db.EstimateRows(JoinP{L: big, R: ScanP{Name: "missing"}, Pred: algebra.BoolC(true)}); got != -1 {
		t.Fatalf("join over unknown table estimate %d, want -1", got)
	}

	// Window: selectivity from the endpoint histogram, clamped to [1, in].
	w := db.EstimateRows(WindowP{T: interval.New(0, 20), In: big})
	if w <= 0 || w >= 100 {
		t.Fatalf("window estimate %d, want in (0, 100)", w)
	}
	if got := db.EstimateRows(WindowP{T: interval.New(500, 600), In: big}); got != 1 {
		t.Fatalf("disjoint-window estimate %d, want the clamp floor 1", got)
	}

	// Grouped aggregation: bounded by distinct-key stats (10 keys → at
	// most 2·10 segment runs… the estimator may clamp lower, but never
	// above 2·distinct).
	agg := AggP{GroupBy: []string{"k"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}, In: big}
	if got := db.EstimateRows(agg); got <= 0 || got > 20 {
		t.Fatalf("grouped-agg estimate %d, want in (0, 20]", got)
	}
	// Global aggregation: at most 2·rows+1 segments, capped by the domain.
	global := AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}, In: big}
	if got := db.EstimateRows(global); got != 201 {
		t.Fatalf("global-agg estimate %d, want 201", got)
	}
}

// Estimates propagate through operator chains: a window below a filter
// below a coalesce still reaches the base table's statistics.
func TestEstimateRowsChain(t *testing.T) {
	db := estimateDB()
	chain := CoalesceP{In: FilterP{
		Pred: algebra.Eq(algebra.Col("k"), algebra.IntC(1)),
		In:   WindowP{T: interval.New(0, 50), In: ScanP{Name: "big"}},
	}}
	got := db.EstimateRows(chain)
	if got <= 0 || got >= 100 {
		t.Fatalf("chained estimate %d, want in (0, 100)", got)
	}
	// est_rows lands on every explain node of the same chain.
	n := db.ExplainPlan(chain)
	for node, depth := n, 0; ; depth++ {
		if node.EstRows < 0 {
			t.Fatalf("explain node %s at depth %d lacks est_rows", node.Op, depth)
		}
		if len(node.Children) == 0 {
			break
		}
		node = node.Children[0]
	}
}
