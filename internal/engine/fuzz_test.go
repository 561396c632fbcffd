package engine_test

import (
	"fmt"
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
// zero-net-delta endpoint, none among negative counts). The seeds cover
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
		if !engine.IsCoalesced(want, engine.CoalesceNative) {
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
		if !engine.IsCoalesced(got, engine.CoalesceNative) {
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
	})
}

// FuzzCoalesce checks the coalesce implementations against each other
// and against the naive per-time-point oracle on arbitrary interval
// multisets: the blocking sweep must preserve every snapshot
// multiplicity and produce a coalesced (unique) encoding, and the
// streaming sweep over begin-sorted input must produce the identical
// row multiset. The streaming pre-aggregated split is cross-checked the
// same way.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4})    // adjacent same-value chains
	f.Add([]byte{3, 0, 15, 3, 5, 15, 3, 10, 2}) // overlaps within one group
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := decodeFuzzTable(data)

		blocking := engine.Coalesce(tbl, engine.CoalesceNative)
		// Oracle: coalescing never changes any snapshot.
		if want, got := timePointCounts(tbl), timePointCounts(blocking); !sameCounts(want, got) {
			t.Fatalf("blocking coalesce changed snapshot multiplicities\ninput:\n%s\noutput:\n%s", tbl, blocking)
		}
		// Uniqueness: the output must be its own coalesced encoding.
		if !engine.IsCoalesced(blocking, engine.CoalesceNative) {
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

		// The streaming pre-aggregated split must match the blocking one
		// row for row on the same input.
		aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
		wantAgg, err := engine.TemporalAggregate(tbl, []string{"v"}, aggs, true, fuzzDomain)
		if err != nil {
			t.Fatal(err)
		}
		it, err := engine.NewStreamAggIter(engine.NewTableIter(sorted), []string{"v"}, aggs, fuzzDomain)
		if err != nil {
			t.Fatal(err)
		}
		gotAgg := engine.Materialize(engine.CheckNoAlias("streaming aggregation", it))
		if !sameCounts(multisetKeys(wantAgg), multisetKeys(gotAgg)) {
			t.Fatalf("streaming aggregation diverges from blocking sweep\ninput:\n%s\nblocking:\n%s\nstreaming:\n%s", tbl, wantAgg, gotAgg)
		}
		if !engine.IsCoalesced(wantAgg, engine.CoalesceNative) {
			t.Fatalf("pre-aggregated output is not coalesced\ninput:\n%s\noutput:\n%s", tbl, wantAgg)
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
