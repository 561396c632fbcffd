package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// eventsAt returns one event per time, numbered in order.
func eventsAt(ts ...interval.Time) []blockEvent {
	ev := make([]blockEvent, len(ts))
	for i, t := range ts {
		ev[i] = blockEvent{t: t, row: int32(i), delta: 1}
	}
	return ev
}

// checkSortEvents sorts a copy of ev with sortEvents and checks it
// against a comparator's stable sort by time. It returns whether the
// result came back in the input slice rather than in the buffer.
func checkSortEvents(t *testing.T, what string, ev []blockEvent) (inPlace bool) {
	t.Helper()
	in, buf := slices.Clone(ev), make([]blockEvent, len(ev))
	sorted, spare := sortEvents(in, buf)
	want := slices.Clone(ev)
	slices.SortStableFunc(want, func(a, b blockEvent) int { return cmp.Compare(a.t, b.t) })
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s: sortEvents\ngot  %v\nwant %v", what, sorted, want)
	}
	if len(ev) == 0 {
		return true
	}
	inPlace = &sorted[0] == &in[0]
	if inPlace && &spare[0] != &buf[0] || !inPlace && (&sorted[0] != &buf[0] || &spare[0] != &in[0]) {
		t.Fatalf("%s: sortEvents returned slices other than its input and its buffer", what)
	}
	return inPlace
}

func TestSortEvents(t *testing.T) {
	checkSortEvents(t, "empty", nil)
	checkSortEvents(t, "one event", eventsAt(7))
	checkSortEvents(t, "negative times", eventsAt(-3, 5, -300, 0, -3, -1<<40, 2))

	// Endpoints near ±2⁶³: max − min overflows int64, and every byte of
	// the offsets differs, so all eight passes run — an even number,
	// which leaves the result in the input slice.
	extreme := eventsAt(math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64-1, math.MinInt64+1,
		math.MinInt64+0x0102030405060708, math.MaxInt64-0x0807060504030201)
	if !checkSortEvents(t, "±2⁶³", extreme) {
		t.Fatal("±2⁶³: the sort did not run all eight passes")
	}

	// Bytes every offset shares are skipped: offsets that differ only in
	// byte 0 take one pass, and so come back in the buffer; those that
	// differ in bytes 0 and 2 take two, and come back in place.
	const base = 1 << 50
	if checkSortEvents(t, "one varying byte", eventsAt(base+9, base+3, base+200, base+3)) {
		t.Fatal("one varying byte: the sort ran an even number of passes, want one")
	}
	if !checkSortEvents(t, "two varying bytes", eventsAt(base+9<<16+4, base+3<<16, base+9<<16+1, base)) {
		t.Fatal("bytes 0 and 2 varying: the sort ran an odd number of passes, want two")
	}
	if !checkSortEvents(t, "one time", eventsAt(5, 5, 5)) {
		t.Fatal("one time: the sort ran a pass")
	}

	// Stability: equal times keep their input order, here over random
	// times from a few values in every byte range.
	rng := rand.New(rand.NewSource(1))
	pool := []interval.Time{-1 << 62, -70000, -1, 0, 1, 255, 256, 70000, 1 << 62}
	for n := range 300 {
		ts := make([]interval.Time, n)
		for i := range ts {
			ts[i] = pool[rng.Intn(len(pool))]
		}
		checkSortEvents(t, "random", eventsAt(ts...))
	}
}

// comparatorRuns is the blocking driver with the comparator sort in
// place of the radix sort and the scatter: each group's events appended
// in input order and sorted by (time, input row). It is the reference
// the blocking driver must reproduce bit for bit.
func comparatorRuns[S any, A accumulator[S]](s *blockSweep[S, A], inputs ...[]tuple.Tuple) sweepOut {
	if s.global {
		s.find(nil, nil, 0)
	}
	base, sign := 0, int32(1)
	for k, rows := range inputs {
		for r, row := range rows {
			_, g, _ := s.find(row, s.keys[k], 0)
			iv, id := rowInterval(row), int32(base+r)
			g.p = append(g.p, blockEvent{iv.Begin, id, sign}, blockEvent{iv.End, id, -sign})
		}
		base, sign = base+len(rows), -sign
	}
	for i := range s.slots {
		slices.SortFunc(s.at(i).p, func(a, b blockEvent) int {
			if a.t != b.t {
				return cmp.Compare(a.t, b.t)
			}
			return cmp.Compare(a.row, b.row)
		})
	}
	s.foldAll(inputs[0])
	return s.out
}

// sameBits reports whether a and b are the same value of the same kind,
// floats bit for bit.
func sameBits(a, b tuple.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == tuple.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return tuple.SameKey(a, b)
}

// checkSameRuns checks that got holds want's runs in want's order, with
// the same counts and bit-identical values.
func checkSameRuns(t *testing.T, what string, got, want sweepOut) {
	t.Helper()
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d runs, want %d", what, len(got.rows), len(want.rows))
	}
	for i, row := range got.rows {
		w := want.rows[i]
		same := len(row) == len(w) && got.count(i) == want.count(i)
		for j := 0; same && j < len(row); j++ {
			same = sameBits(row[j], w[j])
		}
		if !same {
			t.Fatalf("%s: run %d is %v ×%d, want %v ×%d", what, i, row, got.count(i), w, want.count(i))
		}
	}
}

// TestBlockSweepMatchesComparatorSort pins that the radix sort and the
// group scatter hand every group's fold its events in the order the
// comparator sort did — (time, input row) — so the runs, float sums
// included, come out bit-identical. Float values of mixed magnitude
// begin and end at shared instants, where the order of the updates
// decides the rounding. Each input runs whole and split into two hash
// partitions of its group key (W = 2), sorted by begin and not.
func TestBlockSweepMatchesComparatorSort(t *testing.T) {
	floats := []float64{0.1, 1e16, -1e16, 3.3, -0.7, 1e-3, 2.5e15, 7}
	aggs := []algebra.AggSpec{
		{Fn: krel.Sum, Arg: "x", As: "s"}, {Fn: krel.Avg, Arg: "x", As: "a"},
		{Fn: krel.CountStar, As: "n"}, {Fn: krel.Min, Arg: "x", As: "lo"},
	}
	for seed := range int64(40) {
		rng := rand.New(rand.NewSource(seed))
		newTable := func(n int) *Table {
			tbl := NewTable(tuple.NewSchema("k", "x"))
			for range n {
				b := interval.Time(rng.Intn(12) * 5) // few instants: many ties
				e := b + interval.Time(1+rng.Intn(4)*5)
				k := tuple.Value(tuple.Int(int64(rng.Intn(4))))
				if rng.Intn(6) == 0 {
					k = tuple.Null
				}
				x := tuple.Float(floats[rng.Intn(len(floats))])
				tbl.Append(tuple.Tuple{k, x}, interval.New(b, e), int64(1+rng.Intn(2)))
			}
			return tbl
		}
		l, r := newTable(1+rng.Intn(60)), newTable(rng.Intn(40))
		dom := interval.NewDomain(0, 100)
		for _, order := range []string{"unsorted", "sorted"} {
			if order == "sorted" {
				l.SortByEndpoints()
				r.SortByEndpoints()
			}
			for _, w := range []int{1, 2} {
				lp, rp := hashParts(l.Rows, w), hashParts(r.Rows, w)
				for part := range w {
					what := func(op string) string { return fmt.Sprintf("seed %d: %s %s W=%d part %d", seed, op, order, w, part) }
					prep, err := prepareAggregate(l.DataSchema(), []string{"k"}, aggs)
					if err != nil {
						t.Fatal(err)
					}
					for _, groupIdx := range [][]int{prep.groupIdx, nil} {
						p := &aggPrep{groupIdx: groupIdx, argIdx: prep.argIdx}
						got, err := newBlockSweep(aggKernel(p, aggs, dom), groupIdx).runs(nil, lp[part])
						if err != nil {
							t.Fatal(err)
						}
						want := comparatorRuns(newBlockSweep(aggKernel(p, aggs, dom), groupIdx), lp[part])
						checkSameRuns(t, what("aggregation"), got, want)
					}
					key := dataColumns(2)
					got, err := newBlockSweep(countKernel(), key, key).runs(nil, lp[part], rp[part])
					if err != nil {
						t.Fatal(err)
					}
					checkSameRuns(t, what("difference"), got, comparatorRuns(newBlockSweep(countKernel(), key, key), lp[part], rp[part]))
					got, err = newBlockSweep(countKernel(), key).runs(nil, lp[part])
					if err != nil {
						t.Fatal(err)
					}
					checkSameRuns(t, what("coalesce"), got, comparatorRuns(newBlockSweep(countKernel(), key), lp[part]))
				}
			}
		}
	}
}

// hashParts splits rows into w partitions by the hash of their first
// column, keeping their order within each: the executor's hash exchange
// on the aggregation's group key.
func hashParts(rows []tuple.Tuple, w int) [][]tuple.Tuple {
	parts := make([][]tuple.Tuple, w)
	for _, row := range rows {
		i := row.HashKey([]int{0}) % uint64(w)
		parts[i] = append(parts[i], row)
	}
	return parts
}

// TestBlockSweepChargesScratch pins the blocking driver's charge to the
// memory governor: blockRowBytes per input row while it sorts and
// groups, refused as a whole at one byte less, and nothing once it has
// returned.
func TestBlockSweepChargesScratch(t *testing.T) {
	tbl := NewTable(tuple.NewSchema("v"))
	for i := range 50 {
		tbl.Append(tuple.Tuple{tuple.Int(int64(i % 7))}, interval.New(int64(i), int64(i+3)), 1)
	}
	need := int64(tbl.Len()) * blockRowBytes
	for _, budget := range []int64{need - 1, need} {
		gov := NewGovernor(Limits{MemBudget: budget})
		it, err := NewBlockCountIter(gov, tbl.Schema, tbl, dataColumns(1), nil, nil)
		if budget < need {
			if !errors.Is(err, ErrMemBudget) {
				t.Fatalf("budget %d of %d needed: err %v, want ErrMemBudget", budget, need, err)
			}
		} else if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		} else {
			it.Close()
		}
		if got := gov.MemInUse(); got != 0 {
			t.Fatalf("budget %d: %d bytes still charged after the sweep", budget, got)
		}
	}
}
