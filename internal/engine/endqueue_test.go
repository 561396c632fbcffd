package engine

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"snapk/internal/interval"
)

// takeBefore takes the ends of the least queued instant before b — of
// any instant with all set — as retire does, and returns them, every
// chunk of their chain released.
func takeBefore(q *endQueue, b interval.Time, all bool) []endEvent {
	var out []endEvent
	for ref := q.take(b, all); ref != 0; ref = q.release(ref) {
		c := q.at(ref)
		out = append(out, c.ev[:c.n]...)
	}
	return out
}

// fuzzQueueTime derives a time no earlier than floor from one byte:
// mostly a small step past floor, so times repeat, and sometimes the
// int64 limits or a jump across the sign bit of the key.
func fuzzQueueTime(floor interval.Time, c byte) interval.Time {
	switch c % 8 {
	case 0:
		return math.MaxInt64
	case 1:
		return max(floor, math.MaxInt64-int64(c%4))
	case 2:
		return max(floor, int64(c)-128)
	}
	return fuzzQueueStep(floor, int64(c/8))
}

// fuzzQueueFar derives a time 3·c past floor, up to 765 instants: past
// the last taken end's 256-instant block, such an end waits in a binary
// bucket and is redistributed into the exact level later.
func fuzzQueueFar(floor interval.Time, c byte) interval.Time {
	return fuzzQueueStep(floor, 3*int64(c))
}

// fuzzQueueStep returns floor + step, saturated at the int64 limit.
func fuzzQueueStep(floor interval.Time, step int64) interval.Time {
	if floor <= math.MaxInt64-step {
		return floor + step
	}
	return math.MaxInt64
}

// fuzzQueueCap bounds the ends a burst queues, so a fuzz input stays
// fast; it spans several chunks.
const fuzzQueueCap = 512

// FuzzEndQueue runs random monotone push and take sequences on the
// streaming sweep's radix queue against a sorted-slice reference, with
// duplicate times, times at the int64 limits and times in later
// 256-instant blocks. An op byte of 0 or 1 (mod 8) pushes a time from
// fuzzQueueTime, 4 or 5 one from fuzzQueueFar, 2 or 6 takes before a
// time, and 3 or 7 pushes a burst. A take must return exactly the
// queued ends of the least instant, and only when that instant lies
// before b: never one at b or later, and never one before the last
// taken instant. Len and each must agree with the reference, and after
// a full drain every chunk must be back on the free list.
func FuzzEndQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 8, 2, 16, 2, 16})                          // a duplicate time, taken before its successor
	f.Add([]byte{0, 0, 1, 1, 0, 3, 2, 0, 2, 3})                      // the int64 limits
	f.Add([]byte{3, 200, 2, 40, 3, 255, 2, 120, 3, 17, 2, 0})        // bursts that chain chunks
	f.Add([]byte{0, 2, 0, 128, 2, 131, 0, 138, 3, 90, 2, 140, 2, 0}) // keys across the sign bit
	// Ends at −6, 2, −126 and 122 straddle the block boundary at 0: the
	// first take moves −6 to the exact level, the one before 2 stops at
	// the block boundary, and the last takes 2, moving 122 with it.
	f.Add([]byte{0, 122, 0, 130, 0, 2, 0, 250, 2, 130, 2, 0})
	// From 2, ends at 11 (exact), 275 (binary bucket 9) and 515 and 755
	// (bucket 10): bucket 9 redistributes into the exact level, then
	// bucket 10, whose 755 lands in 515's block.
	f.Add([]byte{0, 130, 2, 138, 4, 3, 4, 91, 4, 171, 4, 251, 2, 0})
	// From 2, ends at 11 and 275: the take before 12 empties the exact
	// level and stops short of bucket 9; an end pushed at the last taken
	// instant, 11, refills its exact bucket, which the next take empties
	// again just before it redistributes bucket 9.
	f.Add([]byte{0, 130, 2, 138, 4, 3, 4, 91, 2, 84, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q endQueue
		var ref []endEvent // the queued ends, sorted by time
		floor := interval.Time(math.MinInt64)
		id := int32(0)
		byID := func(a, b endEvent) int { return int(a.ref - b.ref) }
		push := func(at interval.Time) {
			e := endEvent{t: at, ref: id}
			id++
			q.push(e, "fuzz")
			i, _ := slices.BinarySearchFunc(ref, e.t, func(a endEvent, t interval.Time) int {
				if a.t <= t {
					return -1
				}
				return 1
			})
			ref = slices.Insert(ref, i, e)
		}
		take := func(b interval.Time, all bool) bool {
			got := takeBefore(&q, b, all)
			if want := len(ref) > 0 && (all || ref[0].t < b); (len(got) > 0) != want {
				t.Fatalf("take(%d, %v) took %v, want an instant: %v (least queued %v)", b, all, got, want, ref)
			}
			if len(got) == 0 {
				return false
			}
			at := ref[0].t
			if (!all && at >= b) || at < floor {
				t.Fatalf("take(%d, %v) took the instant %d (last taken %d)", b, all, at, floor)
			}
			n := 0
			for n < len(ref) && ref[n].t == at {
				n++
			}
			slices.SortFunc(got, byID)
			if want := slices.SortedFunc(slices.Values(ref[:n]), byID); !slices.Equal(got, want) {
				t.Fatalf("take(%d, %v) took %v, want the ends at %d: %v", b, all, got, at, want)
			}
			ref = ref[n:]
			floor = at
			return true
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0, 1:
				push(fuzzQueueTime(floor, arg))
			case 4, 5:
				push(fuzzQueueFar(floor, arg))
			case 2, 6:
				b := fuzzQueueTime(floor, arg)
				for take(b, false) {
				}
			case 3, 7:
				for j := range min(int(arg), fuzzQueueCap-len(ref)) {
					push(fuzzQueueTime(floor, byte(j)*arg))
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("Len %d, reference %d", q.Len(), len(ref))
			}
			var seen []endEvent
			q.each(func(e endEvent) { seen = append(seen, e) })
			slices.SortFunc(seen, byID)
			if want := slices.SortedFunc(slices.Values(ref), byID); !slices.Equal(seen, want) {
				t.Fatalf("each visits %v, reference %v", seen, want)
			}
		}
		for take(0, true) {
		}
		free, carved := 0, 0
		for c := q.free; c != 0; c = q.at(c).next {
			free++
		}
		for _, blk := range q.blocks {
			carved += len(blk)
		}
		if q.Len() != 0 || q.used != 0 || q.full != [exactBuckets / 64]uint64{} || free != carved {
			t.Fatalf("after a full drain: Len %d, binary buckets %b, exact buckets %x, %d of %d chunks free",
				q.Len(), q.used, q.full, free, carved)
		}
	})
}

// TestEndQueueMovesPerEnd drives the queue with Fig 5's shape of ends,
// each 20–170 instants past its begin, eight begins per instant, and
// takes before every instant as retire does. An end pushed into the last
// taken key's block waits in its exact bucket and is never moved; an end
// pushed into binary bucket i moves at most i − 8 times, one bucket down
// each time. Moves are counted where the queue redistributes, so the
// bound fails if an exact end moves or a binary one moves too often.
func TestEndQueueMovesPerEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q endQueue
	pushes, exact, bound := 0, 0, 0
	for b := interval.Time(0); b < 5000; b++ {
		for len(takeBefore(&q, b, false)) > 0 {
		}
		for range 8 {
			e := endEvent{t: b + 20 + rng.Int63n(151)}
			if d := queueKey(e.t) ^ q.last; d < exactBuckets {
				exact++
			} else {
				bound += bits.Len64(d) - 8
			}
			q.push(e, "test")
			pushes++
		}
	}
	for len(takeBefore(&q, 0, true)) > 0 {
	}
	if q.moves > bound {
		t.Fatalf("%d moves; ends pushed into binary buckets may move %d times at most, exact ones never", q.moves, bound)
	}
	writes := float64(pushes+q.moves) / float64(pushes)
	if writes > 1.5 {
		t.Fatalf("%.2f writes per end (%d pushes, %d moves), want at most 1.5", writes, pushes, q.moves)
	}
	t.Logf("%d ends, %d pushed into the exact level: %.2f writes per end", pushes, exact, writes)
}
