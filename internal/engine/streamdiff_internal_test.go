package engine

import (
	"testing"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// TestStreamDiffPeakState is the peak-state assertion of the streaming
// difference: over an input whose groups close one after another, the
// live state (group map, expiry heap, per-group end heaps, output
// queue) must stay O(open intervals + active groups) — bounded by a
// small constant here — while thousands of rows stream through. A
// regression that silently materializes an input shows up as the group
// map or an end heap growing with the input.
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
	var peakGroups, peakExpiry, peakEnds, peakQueue, rows int
	// Capacity-1 batches sample the sweep state after every output row.
	b := NewRowBatch(1)
	for iter.NextBatch(b) {
		rows += b.Len()
		if len(sd.groups) > peakGroups {
			peakGroups = len(sd.groups)
		}
		if sd.expiry.len() > peakExpiry {
			peakExpiry = sd.expiry.len()
		}
		for _, g := range sd.groups {
			if g.ends.len() > peakEnds {
				peakEnds = g.ends.len()
			}
		}
		if len(sd.queue) > peakQueue {
			peakQueue = len(sd.queue)
		}
	}
	if rows == 0 {
		t.Fatal("difference is empty")
	}
	// Each group holds 2 left + 1 right open interval at most; with one
	// group arriving while its predecessor retires, every structure must
	// stay constant-bounded. The bounds leave generous slack: the point
	// is O(1) vs O(n).
	if peakGroups > 4 || peakExpiry > 8 || peakEnds > 6 || peakQueue > 16 {
		t.Fatalf("streaming diff state grew beyond O(active): peak groups %d, expiry %d, ends %d, queue %d over %d input groups",
			peakGroups, peakExpiry, peakEnds, peakQueue, groups)
	}
}
