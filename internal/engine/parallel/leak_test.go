package parallel_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
)

// waitForGoroutines polls until the goroutine count drops back to at
// most base, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("fragment goroutines leaked: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// pullRow reports whether one capacity-1 NextBatch on it delivered a
// row.
func pullRow(it engine.RowIter) bool { return it.NextBatch(engine.NewRowBatch(1)) }

// Canceling the context mid-stream over a large parallel pipeline must
// tear down every fragment goroutine (scan workers, distributor, merge
// producers), and Close must be idempotent afterwards.
func TestCancelMidStreamReapsFragments(t *testing.T) {
	db := bigPipelineDB(20000)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	it, err := parallel.Exec(ctx, db, bigPipelinePlan(), parallel.Options{Workers: 4, MorselSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Consume a few rows so the exchange is in flight, then cancel.
	for i := 0; i < 5; i++ {
		if !pullRow(it) {
			t.Fatal("pipeline exhausted before cancellation; enlarge the dataset")
		}
	}
	cancel()
	// After cancellation the stream must terminate.
	for pullRow(it) {
	}
	it.Close()
	it.Close() // idempotent
	waitForGoroutines(t, base)
}

// Closing the root iterator without cancellation or exhaustion must also
// reap all fragment goroutines.
func TestCloseMidStreamReapsFragments(t *testing.T) {
	db := bigPipelineDB(20000)
	base := runtime.NumGoroutine()
	it, err := parallel.Exec(context.Background(), db, bigPipelinePlan(), parallel.Options{Workers: 4, MorselSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !pullRow(it) {
		t.Fatal("empty pipeline")
	}
	it.Close()
	it.Close()
	waitForGoroutines(t, base)
}

// A fully drained parallel execution must leave no goroutines behind
// even before Close is called, and Close must stay safe after natural
// exhaustion.
func TestDrainedStreamLeavesNoFragments(t *testing.T) {
	db := bigPipelineDB(4000)
	base := runtime.NumGoroutine()
	it, err := parallel.Exec(context.Background(), db, bigPipelinePlan(), parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl := engine.Materialize(it)
	if tbl.Len() == 0 {
		t.Fatal("empty result")
	}
	it.Close()
	waitForGoroutines(t, base)
}
