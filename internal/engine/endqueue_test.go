package engine

import (
	"math"
	"slices"
	"testing"

	"snapk/internal/interval"
)

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
	if step := int64(c / 8); floor <= math.MaxInt64-step {
		return floor + step
	}
	return math.MaxInt64
}

// fuzzQueueCap bounds the ends a burst queues, so a fuzz input stays
// fast; it spans several chunks.
const fuzzQueueCap = 4 * chunkEvents

// FuzzEndQueue runs random monotone push and popBefore sequences on the
// streaming sweep's radix queue against a sorted-slice reference, with
// duplicate times and times at the int64 limits. Pops must come out in
// time order, popBefore(b) must pop exactly when the reference holds an
// end before b and never one at b or later, Len and each must agree
// with the reference, and after a full drain every chunk must be back
// on the free list.
func FuzzEndQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 8, 2, 16, 2, 16})                          // a duplicate time, popped before its successor
	f.Add([]byte{0, 0, 1, 1, 0, 3, 2, 0, 2, 3})                      // the int64 limits
	f.Add([]byte{3, 200, 2, 40, 3, 255, 2, 120, 3, 17, 2, 0})        // bursts that chain chunks
	f.Add([]byte{0, 2, 0, 128, 2, 131, 0, 138, 3, 90, 2, 140, 2, 0}) // keys across the sign bit
	f.Fuzz(func(t *testing.T, data []byte) {
		var q endQueue
		var ref []endEvent // the queued ends, sorted by time
		floor := interval.Time(math.MinInt64)
		id := int32(0)
		push := func(c byte) {
			e := endEvent{t: fuzzQueueTime(floor, c), ref: id}
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
		pop := func(b interval.Time, all bool) bool {
			e, ok := q.popBefore(b, all)
			if want := len(ref) > 0 && (all || ref[0].t < b); ok != want {
				t.Fatalf("popBefore(%d, %v) popped %v, want %v (least queued %v)", b, all, ok, want, ref)
			}
			if !ok {
				return false
			}
			if e.t != ref[0].t || (!all && e.t >= b) || e.t < floor {
				t.Fatalf("popBefore(%d, %v) = %d, want %d (last popped %d)", b, all, e.t, ref[0].t, floor)
			}
			j := 0
			for j < len(ref) && ref[j].t == e.t && ref[j] != e {
				j++
			}
			if j == len(ref) || ref[j] != e {
				t.Fatalf("popped %v, which is not queued", e)
			}
			ref = slices.Delete(ref, j, j+1)
			floor = e.t
			return true
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0, 1:
				push(arg)
			case 2:
				b := fuzzQueueTime(floor, arg)
				for pop(b, false) {
				}
			case 3:
				for j := range min(int(arg), fuzzQueueCap-len(ref)) {
					push(byte(j) * arg)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("Len %d, reference %d", q.Len(), len(ref))
			}
			var seen []endEvent
			q.each(func(e endEvent) { seen = append(seen, e) })
			byRef := func(a, b endEvent) int { return int(a.ref - b.ref) }
			slices.SortFunc(seen, byRef)
			want := slices.SortedFunc(slices.Values(ref), byRef)
			if !slices.Equal(seen, want) {
				t.Fatalf("each visits %v, reference %v", seen, want)
			}
		}
		for pop(0, true) {
		}
		free := 0
		for c := q.free; c != 0; c = q.chunks[c-1].next {
			free++
		}
		if q.Len() != 0 || q.used != 0 || free != len(q.chunks) {
			t.Fatalf("after a full drain: Len %d, used buckets %b, %d of %d chunks free", q.Len(), q.used, free, len(q.chunks))
		}
	})
}
