// White-box regression tests for the exchange lifecycle: closing the
// CONSUMER-SIDE iterator of an exchange must cancel its producers,
// without any executor-level cancellation. Before the exchange refcount
// existed, mergeIter.Close and the partition-side Close were no-ops, so
// an early-closed inner exchange (e.g. a join side abandoned by a
// short-circuiting parent) stranded its producer goroutines on the
// bounded transport channel until the whole execution was torn down.
package parallel

import (
	"context"
	"testing"
	"time"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// sliceIter yields n synthetic period-encoded rows with ascending begin
// points.
type sliceIter struct{ i, n int }

func (it *sliceIter) Schema() tuple.Schema { return tuple.NewSchema("v", "begin", "end") }

func (it *sliceIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	for ; it.i < it.n && b.Len() < b.Cap(); it.i++ {
		i := int64(it.i)
		b.Append(tuple.Tuple{tuple.Int(i), tuple.Int(i), tuple.Int(i + 1)})
	}
	return b.Len() > 0
}

func (it *sliceIter) Err() error { return nil }

func (it *sliceIter) Close() {}

// pull reports whether one NextBatch on it delivered rows.
func pull(it engine.RowIter) bool { return it.NextBatch(engine.NewRowBatch(1)) }

// waitProducers fails the test if the executor's fragment goroutines do
// not all exit shortly after the iterator-level Close under test.
func waitProducers(t *testing.T, e *executor) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producer goroutines still blocked 5s after iterator-level Close (exchange not canceled)")
	}
}

// newTestExecutor builds an executor whose context is never canceled, so
// the only thing that can unblock a stranded producer is the exchange
// lifecycle itself.
func newTestExecutor(workers int) *executor {
	return &executor{ctx: context.Background(), workers: workers, morsel: 8}
}

// Closing a merge-exchange iterator early must reap its producers even
// though the execution context stays live.
func TestMergeIterCloseUnblocksProducers(t *testing.T) {
	e := newTestExecutor(2)
	it := e.startMerge([]engine.RowIter{&sliceIter{n: 100000}, &sliceIter{n: 100000}}, nil)
	if !pull(it) {
		t.Fatal("empty merge")
	}
	it.Close()
	it.Close() // idempotent: must not over-release the refcount
	waitProducers(t, e)
}

// The ordered merge exchange has the same lifecycle obligation.
func TestOrderedMergeIterCloseUnblocksProducers(t *testing.T) {
	e := newTestExecutor(2)
	it := e.startOrderedMerge([]engine.RowIter{&sliceIter{n: 100000}, &sliceIter{n: 100000}}, nil)
	if !pull(it) {
		t.Fatal("empty ordered merge")
	}
	it.Close()
	it.Close()
	waitProducers(t, e)
}

// Closing every partition-side iterator of a repartition exchange must
// reap the distributor; closing only SOME of them must not, because the
// remaining consumers still share the transport channel. The refcount
// counts consumers, not "first Close wins".
func TestPartitionIterCloseRefcount(t *testing.T) {
	// All consumers closed early: the distributor must exit.
	e := newTestExecutor(4)
	parts := e.repartition(&sliceIter{n: 100000}, nil)
	if !pull(parts[0]) {
		t.Fatal("empty repartition")
	}
	for _, p := range parts {
		p.Close()
		p.Close()
	}
	waitProducers(t, e)

	// One consumer closed early: the survivor must still observe the
	// whole remaining stream, proving the early Close did not cancel.
	e = newTestExecutor(2)
	const n = 1000
	parts = e.repartition(&sliceIter{n: n}, nil)
	parts[0].Close()
	tbl, err := engine.MaterializeErr(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("surviving partition saw no rows: closing a sibling canceled the exchange")
	}
	parts[1].Close()
	waitProducers(t, e)
}

// A producer aborted by cancellation while blocked on a full transport
// channel must still record its backpressure wait: the cancel arm of
// the send select counts exactly like the send arm. Before the fix the
// wait was only recorded on a successful send, under-reporting
// backpressure precisely when the channel was most congested.
func TestSendRecordsWaitOnCancelArm(t *testing.T) {
	e := newTestExecutor(1)
	col := engine.NewCollector()
	st := col.Root.Child("Exchange:test", "")
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan batch) // unbuffered, never received from
	done := make(chan bool)
	go func() {
		done <- e.send(ctx, ch, batch{tuple.Tuple{tuple.Int(0)}}, st, true)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if sent := <-done; sent {
		t.Fatal("send on a canceled exchange must report false")
	}
	if st.Wait() <= 0 {
		t.Fatalf("canceled send recorded no backpressure wait (wait=%v)", st.Wait())
	}
	if st.Batches() != 0 {
		t.Fatalf("canceled send must not count a batch, got %d", st.Batches())
	}
}
