package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// countSweep is the streaming difference and coalesce, aggStream the
// streaming aggregation.
type (
	countSweep = sweepIter[countState, countAcc]
	aggStream  = sweepIter[aggState, aggAcc]
)

// liveGroups returns the groups linked in the table of it: the live ones.
func liveGroups[S any, A accumulator[S]](it *sweepIter[S, A]) []*group[changes[S]] {
	var live []*group[changes[S]]
	for _, i := range it.chains {
		for ; i >= 0; i = it.at(i).next {
			live = append(live, it.at(i))
		}
	}
	return live
}

// TestStreamDiffPeakState is the peak-state assertion of the streaming
// difference: over an input whose groups close one after another, the
// live state (group table, end-event queue, per-group queued ends,
// output queue) must stay O(open intervals + active groups) — bounded
// by a small constant here — while thousands of rows stream through. A
// regression that silently materializes an input shows up as the group
// table or the event queue growing with the input.
func TestStreamDiffPeakState(t *testing.T) {
	const groups = 2000
	l := NewTable(tuple.NewSchema("v"))
	r := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < groups; i++ {
		// Group i lives in [i*10, i*10+6): fully closed before group i+1
		// begins, so at most two groups are ever live (the one being
		// evicted and the one arriving).
		l.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i*10, i*10+6), 2)
		r.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i*10+2, i*10+4), 1)
	}
	iter, err := NewStreamDiffIter(NewTableIter(l), NewTableIter(r))
	if err != nil {
		t.Fatal(err)
	}
	defer iter.Close()
	sd := iter.(*countSweep)
	var peakGroups, peakEvents, peakOpen, peakQueue, rows int
	// Capacity-1 batches sample the sweep state after every output row.
	b := NewRowBatch(1)
	for iter.NextBatch(b) {
		rows += b.Len()
		live := liveGroups(sd)
		if len(live) != sd.live {
			t.Fatalf("%d groups linked in the table, live count says %d", len(live), sd.live)
		}
		peakGroups = max(peakGroups, len(live))
		peakEvents = max(peakEvents, sd.events.Len())
		for _, g := range live {
			peakOpen = max(peakOpen, int(g.open))
		}
		peakQueue = max(peakQueue, len(sd.out.rows))
	}
	if rows == 0 {
		t.Fatal("difference is empty")
	}
	// Each group holds 2 left + 1 right open interval at most; with one
	// group arriving while its predecessor retires, every structure must
	// stay constant-bounded. The bounds leave generous slack: the point
	// is O(1) vs O(n).
	if peakGroups > 4 || peakEvents > 8 || peakOpen > 6 || peakQueue > 16 {
		t.Fatalf("streaming diff state grew beyond O(active): peak groups %d, events %d, open per group %d, queue %d over %d input groups",
			peakGroups, peakEvents, peakOpen, peakQueue, groups)
	}
	if got := sd.MaxState(); got < 2 || got > 8 {
		t.Fatalf("MaxState = %d, want live groups plus one group's open ends (2..8)", got)
	}
}

// At end of input the open groups commit a batch at a time: over a
// thousand groups all open until the input ends, the streaming
// coalesce's output holds one batch of runs at most, not one run per
// group.
func TestStreamFlushIsBatched(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < 1000; i++ {
		in.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, 2000), 1)
	}
	it := NewStreamCoalesceIter(NewTableIter(in))
	defer it.Close()
	sc := it.(*countSweep)
	b := NewRowBatch(8)
	rows, peak := 0, 0
	for it.NextBatch(b) {
		rows += b.Len()
		peak = max(peak, len(sc.out.rows))
	}
	if rows != 1000 || peak > 8 {
		t.Fatalf("%d rows with up to %d runs held; want 1000 rows, at most one batch of 8 held", rows, peak)
	}
}

// A run cut by NextBatch's capacity resumes where it was cut, in both
// drivers, when the next pull takes runs: the run then counts only the
// rows not yet delivered.
func TestRunResumesAfterCut(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 5)
	for _, streaming := range []bool{false, true} {
		var it RowIter = NewStreamCoalesceIter(NewTableIter(in))
		if !streaming {
			it.Close()
			var err error
			if it, err = NewBlockDiffIter(in, nil); err != nil {
				t.Fatal(err)
			}
		}
		b, mult := NewRowBatch(3), []int64(nil)
		if !it.NextBatch(b) || b.Len() != 3 {
			t.Fatalf("streaming=%v: first pull delivered %d rows, want 3", streaming, b.Len())
		}
		if !it.(RunIter).NextRuns(b, &mult) || b.Len() != 1 || mult[0] != 2 {
			t.Fatalf("streaming=%v: resumed run has counts %v, want [2]", streaming, mult)
		}
		if it.(RunIter).NextRuns(b, &mult) || b.Len() != 0 || len(mult) != 0 {
			t.Fatalf("streaming=%v: %d runs after the end, counts %v", streaming, b.Len(), mult)
		}
		it.Close()
	}
}

// chainKeys returns the first data column of every group in the chain
// of hash h, head first.
func chainKeys(sd *countSweep, h uint64) []int64 {
	var keys []int64
	i, ok := sd.chains[h]
	for ; ok && i >= 0; i = sd.at(i).next {
		keys = append(keys, sd.at(i).key[0].AsInt())
	}
	return keys
}

// TestStreamDiffForcedCollisions gives every key one hash, so each
// sweep's group table is a single chain that SameKey alone tells apart:
// the streaming and blocking coalesce and difference, and the grouped
// aggregation in both drivers. Over churned keys — evicted from
// anywhere in the chain and reappearing, NULL among them, and spelled
// as Ints or integral Floats at random — every result must match the
// per-time-point oracle and the unmasked sweep. A fixed input first pins
// an unlink from the middle of the chain.
func TestStreamDiffForcedCollisions(t *testing.T) {
	mid := NewTable(tuple.NewSchema("k"))
	mid.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 1)
	mid.Append(tuple.Tuple{tuple.Int(2)}, interval.New(1, 5), 1)
	mid.Append(tuple.Tuple{tuple.Int(3)}, interval.New(2, 10), 1)
	mid.Append(tuple.Tuple{tuple.Int(1)}, interval.New(6, 12), 1)
	co := NewStreamCoalesceIter(NewTableIter(mid))
	sd := co.(*countSweep)
	sd.hashMask = 0
	b := NewRowBatch(1)
	if !co.NextBatch(b) || rowInterval(b.Rows[0]) != interval.New(1, 5) {
		t.Fatalf("first row %v, want key 2 over [1, 5)", b.Rows)
	}
	if got := chainKeys(sd, 0); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("chain after evicting its middle group = %v, want [3 1]", got)
	}
	rows := append([]tuple.Tuple{b.Rows[0].Clone()}, drainRows(t, co, 1)...)
	assertSameRows(t, &Table{Schema: mid.Schema, Rows: rows}, Coalesce(mid))

	aggs := []algebra.AggSpec{
		{Fn: krel.CountStar, As: "n"}, {Fn: krel.Count, Arg: "x", As: "c"}, {Fn: krel.Sum, Arg: "x", As: "s"},
		{Fn: krel.Min, Arg: "x", As: "lo"}, {Fn: krel.Max, Arg: "x", As: "hi"}, {Fn: krel.Avg, Arg: "x", As: "avg"},
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := churnTable(rng, 2+rng.Intn(8), 300, 20)
		r := churnTable(rng, 2+rng.Intn(8), 200, 20)
		// The grouped aggregation's input: l's keys with an integer
		// argument, sometimes NULL.
		a := &Table{Schema: PeriodSchema(tuple.NewSchema("k", "x"))}
		for _, row := range l.Rows {
			x := tuple.Int(rng.Int63n(10))
			if rng.Intn(8) == 0 {
				x = tuple.Null
			}
			a.Rows = append(a.Rows, tuple.Tuple{row[0], x, row[1], row[2]})
		}
		var dom interval.Domain
		for _, tbl := range []*Table{l, r, a} {
			for _, row := range tbl.Rows {
				// Key 0 is NULL; about half of the others are spelled as
				// integral Floats, which SameKey and HashKey equate.
				if k := row[0]; k.IsNull() || k.AsInt() == 0 {
					row[0] = tuple.Null
				} else if rng.Intn(2) == 0 {
					row[0] = tuple.Float(float64(k.AsInt()))
				}
				dom.Max = max(dom.Max, rowInterval(row).End)
			}
		}
		tables := map[string]*Table{"l": l, "r": r, "a": a}
		check := func(what string, q algebra.Query, got, want *Table) {
			t.Helper()
			if err := snapshotOracle(dom, q, got, tables); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, what, err)
			}
			assertSameRows(t, got, want)
		}
		coalesce, diff := algebra.Rel{Name: "l"}, algebra.Diff{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}
		grouped := algebra.Agg{GroupBy: []string{"k"}, Aggs: aggs, In: algebra.Rel{Name: "a"}}
		wantDiff, err := TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		wantAgg, err := TemporalAggregate(a, grouped.GroupBy, aggs, true, dom)
		if err != nil {
			t.Fatal(err)
		}

		co := NewStreamCoalesceIter(NewTableIter(l))
		co.(*countSweep).hashMask = 0
		check("streaming coalesce", coalesce, &Table{Schema: l.Schema, Rows: drainRows(t, co, 8)}, Coalesce(l))
		bc := newBlockSweep(countKernel(), dataColumns(1))
		bc.hashMask = 0
		check("blocking coalesce", coalesce, &Table{Schema: l.Schema, Rows: bc.run(l.Rows)}, Coalesce(l))

		di, err := NewStreamDiffIter(NewTableIter(l), NewTableIter(r))
		if err != nil {
			t.Fatal(err)
		}
		di.(*countSweep).hashMask = 0
		check("streaming difference", diff, &Table{Schema: l.Schema, Rows: drainRows(t, di, 8)}, wantDiff)
		bd := newBlockSweep(countKernel(), dataColumns(1), dataColumns(1))
		bd.hashMask = 0
		check("blocking difference", diff, &Table{Schema: l.Schema, Rows: bd.run(l.Rows, r.Rows)}, wantDiff)

		ag, err := NewStreamAggIter(NewTableIter(a), grouped.GroupBy, aggs, dom)
		if err != nil {
			t.Fatal(err)
		}
		ag.(*aggStream).hashMask = 0
		check("streaming aggregation", grouped, &Table{Schema: wantAgg.Schema, Rows: drainRows(t, ag, 8)}, wantAgg)
		prep, err := prepareAggregate(a.DataSchema(), grouped.GroupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		ba := newBlockSweep(aggKernel(prep, aggs, dom), prep.groupIdx)
		ba.hashMask = 0
		check("blocking aggregation", grouped, &Table{Schema: wantAgg.Schema, Rows: ba.run(a.Rows)}, wantAgg)

		// The same sweeps over rows read through column maps: each input
		// holds its data columns at positions of its own, among columns
		// the sweep must not read, so the difference's group table meets
		// the two sides' keys through two different maps.
		ml, lm := spread(rng, l, 3, 2)
		mr, rm := spread(rng, r, 2, 0)
		ma, am := spread(rng, a, 4, 3, 1)
		co = NewStreamCountIter(l.Schema, NewTableIter(ml), lm, nil, nil, 0)
		co.(*countSweep).hashMask = 0
		check("streaming coalesce through a map", coalesce, &Table{Schema: l.Schema, Rows: drainRows(t, co, 8)}, Coalesce(l))
		bc = newBlockSweep(countKernel(), lm)
		bc.hashMask = 0
		check("blocking coalesce through a map", coalesce, &Table{Schema: l.Schema, Rows: bc.run(ml.Rows)}, Coalesce(l))
		di = NewStreamCountIter(l.Schema, NewTableIter(ml), lm, NewTableIter(mr), rm, 0)
		di.(*countSweep).hashMask = 0
		check("streaming difference through two maps", diff, &Table{Schema: l.Schema, Rows: drainRows(t, di, 8)}, wantDiff)
		bd = newBlockSweep(countKernel(), lm, rm)
		bd.hashMask = 0
		check("blocking difference through two maps", diff, &Table{Schema: l.Schema, Rows: bd.run(ml.Rows, mr.Rows)}, wantDiff)
		ag, err = NewMappedStreamAggIter(NewTableIter(ma), a.DataSchema(), am, grouped.GroupBy, aggs, dom, 0)
		if err != nil {
			t.Fatal(err)
		}
		ag.(*aggStream).hashMask = 0
		check("streaming aggregation through a map", grouped, &Table{Schema: wantAgg.Schema, Rows: drainRows(t, ag, 8)}, wantAgg)
		mprep := prep.through(am)
		ba = newBlockSweep(aggKernel(mprep, aggs, dom), mprep.groupIdx)
		ba.hashMask = 0
		check("blocking aggregation through a map", grouped, &Table{Schema: wantAgg.Schema, Rows: ba.run(ma.Rows)}, wantAgg)
	}
}

// spread returns tbl's rows laid out width data columns wide, data
// column j at column at[j] and random values of every kind elsewhere,
// with the column map that reads tbl's data columns back.
func spread(rng *rand.Rand, tbl *Table, width int, at ...int) (*Table, ColMap) {
	cols := make([]string, width)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	out := &Table{Schema: PeriodSchema(tuple.NewSchema(cols...))}
	junk := []tuple.Value{tuple.Null, tuple.Int(0), tuple.Float(1), tuple.String_("x"), tuple.Bool(true)}
	for _, row := range tbl.Rows {
		wide := make(tuple.Tuple, width+2)
		for i := range width {
			wide[i] = junk[rng.Intn(len(junk))]
		}
		for j, c := range at {
			wide[c] = row[j]
		}
		wide[width], wide[width+1] = row[len(row)-2], row[len(row)-1]
		out.Rows = append(out.Rows, wide)
	}
	return out, at
}

// Spread gives the package's external tests spread.
var Spread = spread
