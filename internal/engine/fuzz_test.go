package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// fuzzDomain is the time domain of the coalesce fuzz harness: small
// enough that the per-time-point oracle stays cheap, large enough for
// nontrivial overlap structure.
var fuzzDomain = interval.NewDomain(0, 32)

// decodeFuzzTable decodes 3-byte chunks of fuzz data into an interval
// multiset over a single data column: (value, begin, span-and-
// multiplicity). Every decoded row is valid within fuzzDomain.
func decodeFuzzTable(data []byte) *engine.Table {
	// Cap the decoded row count: beyond a few hundred rows the fuzzer
	// stops finding new structure and the quadratic oracle dominates.
	if len(data) > 300 {
		data = data[:300]
	}
	tbl := engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+2 < len(data); i += 3 {
		v := int64(data[i] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for coalescing
		}
		begin := int64(data[i+1]) % (fuzzDomain.Max - 1)
		span := int64(data[i+2]%16) + 1
		end := begin + span
		if end > fuzzDomain.Max {
			end = fuzzDomain.Max
		}
		mult := int64(data[i+2]%3) + 1
		tbl.Append(tuple.Tuple{val}, interval.New(begin, end), mult)
	}
	return tbl
}

// throughMap lays t's rows out through a random column map that seed
// picks: t's data columns at a random permutation of positions among up
// to three extra columns of every kind, which no sweep may read. It
// returns the wider rows, in t's order, and the map that reads t's data
// columns back.
func throughMap(t *engine.Table, seed int64) (*engine.Table, engine.ColMap) {
	rng := rand.New(rand.NewSource(seed))
	n := t.DataArity()
	w := n + rng.Intn(4)
	return engine.Spread(rng, t, w, rng.Perm(w)[:n]...)
}

// fuzzSeed folds fuzz data into a seed for throughMap.
func fuzzSeed(data []byte) int64 {
	var h int64
	for _, c := range data {
		h = 31*h + int64(c)
	}
	return h
}

// timePointCounts is the naive oracle: for every (value, time point),
// the number of rows whose interval covers the point, counting
// duplicates.
func timePointCounts(t *engine.Table) map[string]int {
	counts := make(map[string]int)
	for _, row := range t.Rows {
		iv := t.Interval(row)
		key := row[:1].Key()
		for p := iv.Begin; p < iv.End; p++ {
			counts[fmt.Sprintf("%s@%d", key, p)]++
		}
	}
	return counts
}

func multisetKeys(t *engine.Table) map[string]int {
	m := make(map[string]int)
	for _, row := range t.Rows {
		m[row.Key()]++
	}
	return m
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// respell returns a copy of t in which, by seed, some keys of column 0
// are written another way that SameKey keys alike — an Int as the
// integral Float, 0 as −0.0 — so the two group lookups, by hash and by
// key code, meet mixed spellings of one key.
func respell(t *engine.Table, seed int64) *engine.Table {
	rng := rand.New(rand.NewSource(seed))
	out := &engine.Table{Schema: t.Schema, Rows: make([]tuple.Tuple, len(t.Rows))}
	for i, row := range t.Rows {
		out.Rows[i] = row
		if v := row[0]; v.Kind() == tuple.KindInt && rng.Intn(2) == 0 {
			f := float64(v.AsInt())
			if f == 0 {
				f = math.Copysign(0, -1)
			}
			out.Rows[i] = append(tuple.Tuple{tuple.Float(f)}, row[1:]...)
		}
	}
	return out
}

// runsOf drains it by NextRuns at an awkward capacity and returns its
// runs in stream order, each as its row and count.
func runsOf(t *testing.T, it engine.RowIter) []string {
	t.Helper()
	defer it.Close()
	var out []string
	b, mult := engine.NewRowBatch(3), []int64(nil)
	for engine.NextRuns(it, b, &mult) {
		for i, row := range b.Rows {
			out = append(out, fmt.Sprintf("%v×%d", row, mult[i]))
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRuns fails unless a sweep that hashes its keys and the same sweep
// finding groups by key codes handed out identical runs, in one order.
func sameRuns(t *testing.T, what string, hashed, coded []string) {
	t.Helper()
	if !slices.Equal(hashed, coded) {
		t.Fatalf("%s: the coded sweep's runs differ from the hashed sweep's\nhashed: %v\ncoded:  %v", what, hashed, coded)
	}
}

// decodeFuzzPair decodes 4-byte chunks of fuzz data into TWO interval
// multisets — (side, value, begin, span-and-multiplicity) — the
// left/right inputs of a difference. Both sides draw values from the
// same small domain, so groups routinely exist on both sides and the ℕ
// monus has real truncation work.
func decodeFuzzPair(data []byte) (l, r *engine.Table) {
	if len(data) > 400 {
		data = data[:400]
	}
	l = engine.NewTable(tuple.NewSchema("v"))
	r = engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+3 < len(data); i += 4 {
		tbl := l
		if data[i]%2 == 1 {
			tbl = r
		}
		v := int64(data[i+1] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for differencing
		}
		begin := int64(data[i+2]) % (fuzzDomain.Max - 1)
		span := int64(data[i+3]%16) + 1
		end := begin + span
		if end > fuzzDomain.Max {
			end = fuzzDomain.Max
		}
		mult := int64(data[i+3]%3) + 1
		tbl.Append(tuple.Tuple{val}, interval.New(begin, end), mult)
	}
	return l, r
}

// monusTimePointCounts is the naive difference oracle: for every
// (value, time point), max(0, |left rows covering it| − |right rows
// covering it|) — the ℕ-monus snapshot semantics, zero entries elided.
func monusTimePointCounts(l, r *engine.Table) map[string]int {
	counts := timePointCounts(l)
	for k, rc := range timePointCounts(r) {
		lc := counts[k]
		if lc <= rc {
			delete(counts, k)
		} else {
			counts[k] = lc - rc
		}
	}
	return counts
}

// FuzzStreamDiff differences the streaming merge-based temporal
// difference against the blocking TemporalDiff oracle on arbitrary
// interval-multiset pairs — the multisets must be identical row for
// row — checks both against the naive per-time-point monus oracle, and
// checks that both emit the unique coalesced encoding (no split at a
// zero-net-delta endpoint, none among negative counts). Both drivers are
// also drained both ways — by NextRuns and by NextBatch. The seeds cover
// merge-order stress (same-instant begins on both sides) and monus
// truncation (right side exceeding the left).
func FuzzStreamDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 9})
	f.Add([]byte{0, 1, 0, 9, 1, 1, 2, 3})                         // simple overlap
	f.Add([]byte{0, 1, 0, 4, 1, 1, 1, 10, 1, 1, 1, 10})           // monus truncation: right exceeds left
	f.Add([]byte{0, 2, 5, 6, 1, 2, 5, 6, 0, 2, 5, 2, 1, 2, 8, 2}) // same-instant begins on both sides (merge order)
	f.Add([]byte{0, 3, 0, 4, 0, 3, 4, 4, 1, 3, 2, 4})             // adjacent left chain split by a right row
	f.Add([]byte{1, 0, 0, 15, 1, 0, 3, 15})                       // right-only groups emit nothing
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r := decodeFuzzPair(data)

		want, err := engine.TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: the blocking diff must realize the per-snapshot monus.
		if wantPts, gotPts := monusTimePointCounts(l, r), timePointCounts(want); !sameCounts(wantPts, gotPts) {
			t.Fatalf("blocking diff violates the per-time-point monus oracle\nleft:\n%s\nright:\n%s\noutput:\n%s", l, r, want)
		}
		if !engine.IsCoalesced(want) {
			t.Fatalf("blocking diff output is not coalesced\nleft:\n%s\nright:\n%s\noutput:\n%s", l, r, want)
		}

		ls, rs := l.Clone(), r.Clone()
		ls.SortByEndpoints()
		rs.SortByEndpoints()
		it, err := engine.NewStreamDiffIter(engine.NewTableIter(ls), engine.NewTableIter(rs))
		if err != nil {
			t.Fatal(err)
		}
		// Under -tags snapdebug this asserts the no-mutation contract at
		// the operator itself, before the differential comparison runs.
		it = engine.CheckNoAlias("streaming difference", it)
		got := engine.Materialize(it)
		it.Close()
		if !sameCounts(multisetKeys(want), multisetKeys(got)) {
			t.Fatalf("streaming diff diverges from blocking sweep\nleft:\n%s\nright:\n%s\nblocking:\n%s\nstreaming:\n%s", l, r, want, got)
		}
		if !engine.IsCoalesced(got) {
			t.Fatalf("streaming diff output is not coalesced\nleft:\n%s\nright:\n%s\noutput:\n%s", l, r, got)
		}

		// Batch drive at a deliberately awkward capacity: the NextBatch
		// path through the same sweep (asserted by the batch-aware
		// snapdebug wrappers under -tags snapdebug) must produce the
		// identical multiset.
		bit, err := engine.NewStreamDiffIter(engine.NewTableIter(ls), engine.NewTableIter(rs))
		if err != nil {
			t.Fatal(err)
		}
		bit = engine.CheckNoAlias("streaming difference (batch)", bit)
		batched := materializeCap(t, bit, 3)
		bit.Close()
		if !sameCounts(multisetKeys(want), multisetKeys(batched)) {
			t.Fatalf("batch-driven streaming diff diverges\nleft:\n%s\nright:\n%s\nwant:\n%s\ngot:\n%s", l, r, want, batched)
		}

		// Both drains of both drivers: runs expanded here, and rows
		// NextBatch expanded, must be the same multiset and realize the
		// per-time-point monus.
		oracle := monusTimePointCounts(l, r)
		for _, form := range []string{"streaming", "blocking"} {
			newIt := func() engine.RowIter {
				it, err := engine.NewStreamDiffIter(engine.NewTableIter(ls), engine.NewTableIter(rs))
				if form == "blocking" {
					it, err = engine.NewBlockDiffIter(l, r)
				}
				if err != nil {
					t.Fatal(err)
				}
				return engine.CheckNoAlias(form+" difference", it)
			}
			checkDrains(t, form+" difference", newIt, oracle)
		}

		// Both drivers over each side read through a column map of its
		// own: the group table meets one group through two maps.
		seed := fuzzSeed(data)
		lm, lcols := throughMap(ls, seed)
		rm, rcols := throughMap(rs, seed+1)
		checkDrains(t, "streaming difference through maps", func() engine.RowIter {
			return engine.CheckNoAlias("streaming difference through maps",
				engine.NewStreamCountIter(ls.Schema, engine.NewTableIter(lm), lcols, engine.NewTableIter(rm), rcols, 0))
		}, oracle)
		lm, lcols = throughMap(l, seed+2)
		rm, rcols = throughMap(r, seed+3)
		checkDrains(t, "blocking difference through maps", func() engine.RowIter {
			it, err := engine.NewBlockCountIter(nil, l.Schema, lm, lcols, rm, rcols)
			if err != nil {
				t.Fatal(err)
			}
			return engine.CheckNoAlias("blocking difference through maps", it)
		}, oracle)

		// Both sides as filters of one sorted table (v, side), its keys
		// respelled: the streaming difference hashing v and the one
		// finding groups by v's key codes must hand out identical runs,
		// and realize the monus.
		both := &engine.Table{Schema: engine.PeriodSchema(tuple.NewSchema("v", "side"))}
		for side, tbl := range []*engine.Table{ls, rs} {
			for _, row := range tbl.Rows {
				both.Rows = append(both.Rows, tuple.Tuple{row[0], tuple.Int(int64(side)), row[1], row[2]})
			}
		}
		engine.SortRowsByEndpoints(both.Rows)
		both = respell(both, seed+4)
		key := []int{0}
		diffOf := func(l, r engine.RowIter, codes int) engine.RowIter {
			side := func(in engine.RowIter, s int64) engine.RowIter {
				f, err := engine.NewFilterIter(in, both.Schema, nil, algebra.Eq(algebra.Col("side"), algebra.IntC(s)))
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			return engine.CheckNoAlias("streaming difference of one table", engine.NewStreamCountIter(ls.Schema, side(l, 0), key, side(r, 1), key, codes))
		}
		hashed := runsOf(t, diffOf(engine.NewTableIter(both), engine.NewTableIter(both), 0))
		lc, codes := engine.NewCodedTableIter(both, key)
		rc, _ := engine.NewCodedTableIter(both, key)
		sameRuns(t, "streaming difference of one table", hashed, runsOf(t, diffOf(lc, rc, codes)))
		checkDrains(t, "coded streaming difference", func() engine.RowIter {
			lc, codes := engine.NewCodedTableIter(both, key)
			rc, _ := engine.NewCodedTableIter(both, key)
			return diffOf(lc, rc, codes)
		}, oracle)
	})
}

// checkDrains drains the iterators newIt returns by NextRuns, expanding
// the runs, and by NextBatch, both at an awkward capacity: the two must
// be the same multiset, and realize the per-time-point counts oracle.
func checkDrains(t *testing.T, what string, newIt func() engine.RowIter, oracle map[string]int) {
	t.Helper()
	it := newIt()
	runs := drainRuns(t, it, 3)
	it.Close()
	it = newIt()
	rows := materializeCap(t, it, 3)
	it.Close()
	if !sameCounts(multisetKeys(runs), multisetKeys(rows)) {
		t.Fatalf("%s: NextRuns and NextBatch drains diverge\nruns:\n%s\nrows:\n%s", what, runs, rows)
	}
	if got := timePointCounts(runs); !sameCounts(oracle, got) {
		t.Fatalf("%s: runs violate the per-time-point oracle\noutput:\n%s", what, runs)
	}
}

// drainRuns drains it by NextRuns at the given capacity, expanding each
// run into its count of rows.
func drainRuns(t *testing.T, it engine.RowIter, capacity int) *engine.Table {
	t.Helper()
	r, ok := it.(engine.RunIter)
	if !ok {
		t.Fatalf("%T delivers no runs", it)
	}
	out := &engine.Table{Schema: it.Schema()}
	b, mult := engine.NewRowBatch(capacity), []int64(nil)
	for r.NextRuns(b, &mult) {
		if len(mult) != b.Len() {
			t.Fatalf("%d runs with %d counts", b.Len(), len(mult))
		}
		for i, row := range b.Rows {
			if mult[i] < 1 {
				t.Fatalf("run %v with count %d", row, mult[i])
			}
			for range mult[i] {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzCoalesce checks the coalesce implementations against each other
// and against the naive per-time-point oracle on arbitrary interval
// multisets: the blocking sweep must preserve every snapshot
// multiplicity and produce a coalesced (unique) encoding, and the
// streaming sweep over begin-sorted input must produce the identical
// row multiset, drained by NextRuns as by NextBatch in both drivers. The
// pre-aggregated split — count, sum, min, max and avg
// over integers, grouped and global — is checked the same way against
// the abstract model's per-time-point aggregate.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4})    // adjacent same-value chains
	f.Add([]byte{3, 0, 15, 3, 5, 15, 3, 10, 2}) // overlaps within one group
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := decodeFuzzTable(data)

		blocking := engine.Coalesce(tbl)
		// Oracle: coalescing never changes any snapshot.
		if want, got := timePointCounts(tbl), timePointCounts(blocking); !sameCounts(want, got) {
			t.Fatalf("blocking coalesce changed snapshot multiplicities\ninput:\n%s\noutput:\n%s", tbl, blocking)
		}
		// Uniqueness: the output must be its own coalesced encoding.
		if !engine.IsCoalesced(blocking) {
			t.Fatalf("blocking coalesce output is not coalesced\ninput:\n%s\noutput:\n%s", tbl, blocking)
		}

		sorted := tbl.Clone()
		sorted.SortByEndpoints()
		// CheckNoAlias is active under -tags snapdebug and an identity
		// wrapper otherwise.
		stream := engine.Materialize(engine.CheckNoAlias("streaming coalesce",
			engine.NewStreamCoalesceIter(engine.NewTableIter(sorted))))
		if !sameCounts(multisetKeys(blocking), multisetKeys(stream)) {
			t.Fatalf("streaming coalesce diverges from blocking sweep\ninput:\n%s\nblocking:\n%s\nstreaming:\n%s", tbl, blocking, stream)
		}

		// Batch drive of the same sweep at an awkward capacity must match.
		bcoal := engine.CheckNoAlias("streaming coalesce (batch)",
			engine.NewStreamCoalesceIter(engine.NewTableIter(sorted)))
		batched := materializeCap(t, bcoal, 3)
		bcoal.Close()
		if !sameCounts(multisetKeys(blocking), multisetKeys(batched)) {
			t.Fatalf("batch-driven streaming coalesce diverges\ninput:\n%s\nwant:\n%s\ngot:\n%s", tbl, blocking, batched)
		}
		checkDrains(t, "streaming coalesce", func() engine.RowIter {
			return engine.CheckNoAlias("streaming coalesce", engine.NewStreamCoalesceIter(engine.NewTableIter(sorted)))
		}, timePointCounts(tbl))
		checkDrains(t, "blocking coalesce", func() engine.RowIter {
			it, err := engine.NewBlockDiffIter(tbl, nil)
			if err != nil {
				t.Fatal(err)
			}
			return engine.CheckNoAlias("blocking coalesce", it)
		}, timePointCounts(tbl))
		// Both drivers over the rows read through a column map.
		seed := fuzzSeed(data)
		sm, scols := throughMap(sorted, seed)
		checkDrains(t, "streaming coalesce through a map", func() engine.RowIter {
			return engine.CheckNoAlias("streaming coalesce through a map",
				engine.NewStreamCountIter(sorted.Schema, engine.NewTableIter(sm), scols, nil, nil, 0))
		}, timePointCounts(tbl))
		tm, tcols := throughMap(tbl, seed+1)
		checkDrains(t, "blocking coalesce through a map", func() engine.RowIter {
			it, err := engine.NewBlockCountIter(nil, tbl.Schema, tm, tcols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return engine.CheckNoAlias("blocking coalesce through a map", it)
		}, timePointCounts(tbl))

		// The streaming coalesce hashing its key and the one finding
		// groups by the table's key codes must hand out identical runs,
		// over keys respelled and over the rows read through a map.
		for _, in := range []struct {
			tbl  *engine.Table
			cols []int
		}{{respell(sorted, seed+3), []int{0}}, {sm, scols}} {
			hashed := runsOf(t, engine.NewStreamCountIter(sorted.Schema, engine.NewTableIter(in.tbl), in.cols, nil, nil, 0))
			it, codes := engine.NewCodedTableIter(in.tbl, in.cols)
			sameRuns(t, "streaming coalesce", hashed, runsOf(t, engine.CheckNoAlias("coded streaming coalesce",
				engine.NewStreamCountIter(sorted.Schema, it, in.cols, nil, nil, codes))))
		}

		// The pre-aggregated split in both forms, grouped and global (the
		// latter with neutral rows over gaps), must realize the
		// per-time-point aggregate of the abstract model, and the streaming
		// form must match the blocking one row for row. The argument x is
		// an integer derived from each row's interval.
		in := &engine.Table{Schema: engine.PeriodSchema(tuple.NewSchema("v", "x"))}
		for _, row := range sorted.Rows {
			iv := sorted.Interval(row)
			in.Rows = append(in.Rows, tuple.Tuple{row[0], tuple.Int((7*iv.Begin + iv.End) % 13), row[1], row[2]})
		}
		aggs := []algebra.AggSpec{
			{Fn: krel.CountStar, As: "n"}, {Fn: krel.Count, Arg: "x", As: "c"}, {Fn: krel.Sum, Arg: "x", As: "s"},
			{Fn: krel.Min, Arg: "x", As: "lo"}, {Fn: krel.Max, Arg: "x", As: "hi"}, {Fn: krel.Avg, Arg: "x", As: "avg"},
		}
		for _, groupBy := range [][]string{{"v"}, nil} {
			q := algebra.Agg{GroupBy: groupBy, Aggs: aggs, In: algebra.Rel{Name: "in"}}
			wantAgg, err := engine.TemporalAggregate(in, groupBy, aggs, true, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			if err := engine.SnapshotOracle(fuzzDomain, q, wantAgg, map[string]*engine.Table{"in": in}); err != nil {
				t.Fatalf("blocking aggregation by %v: %v\ninput:\n%s\noutput:\n%s", groupBy, err, in, wantAgg)
			}
			if !engine.IsCoalesced(wantAgg) {
				t.Fatalf("pre-aggregated output is not coalesced\ninput:\n%s\noutput:\n%s", in, wantAgg)
			}
			it, err := engine.NewStreamAggIter(engine.NewTableIter(in), groupBy, aggs, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			gotAgg := materializeCap(t, engine.CheckNoAlias("streaming aggregation", it), 3)
			it.Close()
			if !sameCounts(multisetKeys(wantAgg), multisetKeys(gotAgg)) {
				t.Fatalf("streaming aggregation by %v diverges from blocking sweep\ninput:\n%s\nblocking:\n%s\nstreaming:\n%s", groupBy, in, wantAgg, gotAgg)
			}
			// Both drivers over the rows read through a column map.
			inm, m := throughMap(in, seed+2)
			mit, err := engine.NewMappedStreamAggIter(engine.NewTableIter(inm), in.DataSchema(), m, groupBy, aggs, fuzzDomain, 0)
			if err != nil {
				t.Fatal(err)
			}
			bit, err := engine.NewBlockAggIter(nil, inm, in.DataSchema(), m, groupBy, aggs, true, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			for form, it := range map[string]engine.RowIter{"streaming": mit, "blocking": bit} {
				got := materializeCap(t, engine.CheckNoAlias(form+" aggregation through a map", it), 3)
				it.Close()
				if !sameCounts(multisetKeys(wantAgg), multisetKeys(got)) {
					t.Fatalf("%s aggregation by %v through map %v diverges\ninput:\n%s\nwant:\n%s\ngot:\n%s", form, groupBy, m, in, wantAgg, got)
				}
			}
			// The streaming aggregation hashing its grouping key and the
			// one finding groups by the key codes of the respelled rows
			// read through the map must hand out identical runs.
			inr := respell(inm, seed+5)
			aggOf := func(it engine.RowIter, codes int) engine.RowIter {
				a, err := engine.NewMappedStreamAggIter(it, in.DataSchema(), m, groupBy, aggs, fuzzDomain, codes)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			var key []int
			if groupBy != nil {
				key = m.Of([]int{0}) // v
			}
			cit, codes := engine.NewCodedTableIter(inr, key)
			sameRuns(t, fmt.Sprintf("streaming aggregation by %v", groupBy), runsOf(t, aggOf(engine.NewTableIter(inr), 0)), runsOf(t, aggOf(cit, codes)))
		}
	})
}

// materializeCap drains it with batches of the given capacity.
func materializeCap(t *testing.T, it engine.RowIter, capacity int) *engine.Table {
	t.Helper()
	out := &engine.Table{Schema: it.Schema()}
	b := engine.NewRowBatch(capacity)
	for it.NextBatch(b) {
		out.Rows = append(out.Rows, b.Rows...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
