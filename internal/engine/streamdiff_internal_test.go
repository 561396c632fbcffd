package engine

import (
	"math/rand"
	"testing"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// liveGroups returns the groups linked in sd's table: the live ones.
func liveGroups(sd *streamDiffIter) []*diffGroup {
	var live []*diffGroup
	for _, i := range sd.table {
		for ; i >= 0; i = sd.group(i).next {
			live = append(live, sd.group(i))
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
	sd := iter.(*streamDiffIter)
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
		peakEvents = max(peakEvents, sd.events.len())
		for _, g := range live {
			peakOpen = max(peakOpen, int(g.open))
		}
		peakQueue = max(peakQueue, len(sd.queue))
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

// chainKeys returns the first data column of every group in the chain
// of hash h, head first.
func chainKeys(sd *streamDiffIter, h uint64) []int64 {
	var keys []int64
	i, ok := sd.table[h]
	for ; ok && i >= 0; i = sd.group(i).next {
		keys = append(keys, sd.group(i).data[0].AsInt())
	}
	return keys
}

// TestStreamDiffForcedCollisions gives every key one hash, so the group
// table is a single chain that SameKey alone tells apart. Over churned
// keys — evicted from anywhere in the chain and reappearing — the
// streaming coalesce and difference must still equal the blocking
// Coalesce and TemporalDiff, also when the subtrahend spells its keys
// as integral Floats. A fixed input first pins an unlink from the
// middle of the chain.
func TestStreamDiffForcedCollisions(t *testing.T) {
	mid := NewTable(tuple.NewSchema("k"))
	mid.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 1)
	mid.Append(tuple.Tuple{tuple.Int(2)}, interval.New(1, 5), 1)
	mid.Append(tuple.Tuple{tuple.Int(3)}, interval.New(2, 10), 1)
	mid.Append(tuple.Tuple{tuple.Int(1)}, interval.New(6, 12), 1)
	co := NewStreamCoalesceIter(NewTableIter(mid))
	sd := co.(*streamDiffIter)
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

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := churnTable(rng, 2+rng.Intn(8), 300, 20)
		r := churnTable(rng, 2+rng.Intn(8), 200, 20)
		if seed%2 == 1 {
			for _, row := range r.Rows {
				row[0] = tuple.Float(float64(row[0].AsInt()))
			}
		}

		co := NewStreamCoalesceIter(NewTableIter(l))
		co.(*streamDiffIter).hashMask = 0
		assertSameRows(t, &Table{Schema: l.Schema, Rows: drainRows(t, co, 8)}, Coalesce(l))

		di, err := NewStreamDiffIter(NewTableIter(l), NewTableIter(r))
		if err != nil {
			t.Fatal(err)
		}
		di.(*streamDiffIter).hashMask = 0
		want, err := TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, &Table{Schema: l.Schema, Rows: drainRows(t, di, 8)}, want)
	}
}
