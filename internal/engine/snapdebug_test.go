//go:build snapdebug

package engine

import (
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// prow builds a one-data-column period row.
func prow(a, begin, end int64) tuple.Tuple {
	return tuple.Tuple{tuple.Int(a), tuple.Int(begin), tuple.Int(end)}
}

// drainCount drives it through capacity-1 batches to end of stream and
// returns the rows delivered.
func drainCount(it RowIter) int {
	n := 0
	b := NewRowBatch(1)
	for it.NextBatch(b) {
		n += b.Len()
	}
	return n
}

func mustPanic(t *testing.T, substrs []string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a snapdebug panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("expected a string panic, got %T: %v", r, r)
		}
		for _, s := range substrs {
			if !strings.Contains(msg, s) {
				t.Errorf("panic %q does not name %q", msg, s)
			}
		}
	}()
	fn()
}

func TestSnapdebugActive(t *testing.T) {
	if !DebugChecks() {
		t.Fatal("DebugChecks() must report true under -tags snapdebug")
	}
}

// TestCheckOrderedPanics feeds a deliberately out-of-begin-order stream
// through CheckOrdered and requires a panic naming the operator.
func TestCheckOrderedPanics(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 5, 6), prow(2, 3, 4)},
	}
	it := CheckOrdered("test sweep operator", NewTableIter(tbl))
	mustPanic(t, []string{"test sweep operator", "out of begin order"}, func() { drainCount(it) })
}

func TestCheckOrderedAcceptsSorted(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 3, 9), prow(2, 3, 4), prow(3, 5, 6)},
	}
	it := CheckOrdered("test sweep operator", NewTableIter(tbl))
	n := drainCount(it)
	it.Close()
	if n != 3 {
		t.Fatalf("wrapper dropped rows: got %d of 3", n)
	}
}

// mutatingIter yields the same backing row twice and mutates it in
// between — the PR 1 aliasing corruption, reproduced on purpose.
type mutatingIter struct {
	row tuple.Tuple
	n   int
}

func (it *mutatingIter) Schema() tuple.Schema { return PeriodSchema(tuple.NewSchema("a")) }

func (it *mutatingIter) NextBatch(b *RowBatch) bool {
	b.Reset()
	if it.n >= 2 {
		return false
	}
	it.n++
	if it.n == 2 {
		it.row[0] = tuple.Int(99)
	}
	b.Append(it.row)
	return true
}

func (it *mutatingIter) Err() error { return nil }

func (it *mutatingIter) Close() {}

// TestCheckNoAliasPanics feeds a stream whose producer mutates a
// previously yielded row through CheckNoAlias and requires a panic
// naming the operator.
func TestCheckNoAliasPanics(t *testing.T) {
	it := CheckNoAlias("mutating test operator", &mutatingIter{row: prow(1, 0, 4)})
	mustPanic(t, []string{"mutating test operator", "mutated a delivered row"}, func() {
		drainCount(it)
		it.Close()
	})
}

// TestCheckNoAliasAcceptsSharedBacking pins that re-yielding the same
// unmutated backing array (scans of one stored table, self-unions) is
// NOT a violation — only observable mutation is.
func TestCheckNoAliasAcceptsSharedBacking(t *testing.T) {
	shared := prow(1, 0, 4)
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{shared, shared},
	}
	it := CheckNoAlias("shared backing scan", NewTableIter(tbl))
	n := drainCount(it)
	it.Close()
	if n != 2 {
		t.Fatalf("wrapper dropped rows: got %d of 2", n)
	}
}

// TestCheckErrCheckedPanics drains a stream to end-of-stream through
// CheckErrChecked and Closes it without consulting Err: the shim must
// panic naming the drain site. Consulting Err first must not.
func TestCheckErrCheckedPanics(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 0, 4)},
	}
	it := CheckErrChecked("test drain site", NewTableIter(tbl))
	drainCount(it)
	mustPanic(t, []string{"test drain site", "without checking Err"}, it.Close)

	it = CheckErrChecked("test drain site", NewTableIter(tbl))
	drainCount(it)
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
}

// TestCheckRecyclePanics: a streaming sweep's group may reach the free
// list only with no end event queued, an empty accumulator and no link
// left in its hash chain. Otherwise the next new group to reuse the
// index would inherit a stale event, a stale count or argument slot,
// an unemitted segment, or lookups of the old key.
func TestCheckRecyclePanics(t *testing.T) {
	it := NewStreamCoalesceIter(NewTableIter(NewTable(tuple.NewSchema("a")))).(*countSweep)
	defer it.Close()
	it.hashMask = 0 // one chain: a and b collide
	a, ga, _ := it.find(tuple.Tuple{tuple.Int(1)}, it.lKey, 0)
	b, gb, _ := it.find(tuple.Tuple{tuple.Int(2)}, it.lKey, 0)

	it.events.push(endEvent{t: 5, ref: b << 1}, it.name)
	mustPanic(t, []string{"recycled group", "end event queued"}, func() { checkRecycle(it, b) })
	if got := takeBefore(&it.events, 6, false); len(got) != 1 || it.events.Len() != 0 {
		t.Fatal("the queued end was not taken")
	}

	gb.p.st.delta = 1
	mustPanic(t, []string{"recycled group", "uncommitted delta 1"}, func() { checkRecycle(it, b) })
	gb.p.st.delta, gb.p.st.count = 0, 1
	mustPanic(t, []string{"recycled group", "count 1"}, func() { checkRecycle(it, b) })
	gb.p.st.count = 0

	// b is the head of the chain, a sits behind it: both are linked.
	mustPanic(t, []string{"recycled group", "hash chain"}, func() { checkRecycle(it, b) })
	mustPanic(t, []string{"recycled group", "hash chain"}, func() { checkRecycle(it, a) })

	evict := func(i int32) {
		g := it.at(i)
		it.finish(&g.p, g.key)
		it.remove(i)
		checkRecycle(it, i)
	}
	// Evicting a unlinks it from behind the chain head; b stays found,
	// and key 1 is not: it comes back as a new group on a's index.
	evict(a)
	if i, g, fresh := it.find(tuple.Tuple{tuple.Int(2)}, it.lKey, 0); fresh || i != b || g != gb {
		t.Fatalf("lookup after unlinking the chain's tail = %d, want %d", i, b)
	}
	if i, _, fresh := it.find(tuple.Tuple{tuple.Int(1)}, it.lKey, 0); !fresh || i != a {
		t.Fatal("an evicted group is still found")
	}
	evict(a)
	evict(b)
	if len(it.free) != 2 || len(it.chains) != 0 || ga.next != -1 {
		t.Fatalf("after two evictions: free list %d, table %d chains", len(it.free), len(it.chains))
	}

	// An aggregation group additionally holds argument slots while rows
	// are alive, and its open segment until it is emitted.
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "x", As: "s"}}
	raw, err := NewStreamAggIter(NewTableIter(NewTable(tuple.NewSchema("g", "x"))), []string{"g"}, aggs, interval.NewDomain(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ag := raw.(*aggStream)
	i, g, _ := ag.find(tuple.Tuple{tuple.Int(1), tuple.Int(7)}, ag.lKey, 0)
	ag.start(&g.p, 0)
	ag.step(&g.p, g.key, 0, 1, tuple.Tuple{tuple.Int(7)})
	ag.remove(i)
	mustPanic(t, []string{"streaming aggregation", "recycled group", "1 live argument slots"}, func() { checkRecycle(ag, i) })
	ag.step(&g.p, g.key, 3, -1, tuple.Tuple{tuple.Int(7)})
	mustPanic(t, []string{"recycled group", "unemitted segment"}, func() { checkRecycle(ag, i) })
	ag.settle(&g.p, g.key)
	checkRecycle(ag, i)
	if len(ag.out.rows) != 1 || rowInterval(ag.out.rows[0]) != interval.New(0, 3) {
		t.Fatalf("settled segment %v, want one row over [0, 3)", ag.out.rows)
	}
}

// TestEndQueueMonotonePanics: the streaming sweep's end-event queue is a
// monotone radix heap, so an end pushed before the last taken one
// would be taken out of time order. Under snapdebug the push panics
// naming the operator; an end at exactly the last taken time is legal.
func TestEndQueueMonotonePanics(t *testing.T) {
	var q endQueue
	q.push(endEvent{t: 5}, "difference")
	if got := takeBefore(&q, 6, false); len(got) != 1 || got[0].t != 5 {
		t.Fatalf("take before 6 = %v, want the end at 5", got)
	}
	q.push(endEvent{t: 5}, "difference")
	mustPanic(t, []string{"streaming difference", "before the last taken end at 5"}, func() {
		q.push(endEvent{t: 4}, "difference")
	})
}
