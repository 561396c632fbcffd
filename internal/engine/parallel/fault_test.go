// Fault-domain tests for the parallel executor: injected panics must be
// contained at the fragment and root boundaries (a query error, never a
// process crash or a goroutine leak), and early Close must reap every
// fragment even while injected errors are tearing the pipeline down
// from the other side.
package parallel_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/chaos"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/tuple"
)

// panicAt wraps an iterator to panic on the nth NextBatch call, so the
// panic unwinds through the pull path of whichever goroutine drives
// this site.
type panicAt struct {
	in engine.RowIter
	n  int
	at int
}

func (it *panicAt) Schema() tuple.Schema { return it.in.Schema() }
func (it *panicAt) Err() error           { return it.in.Err() }
func (it *panicAt) Close()               { it.in.Close() }

func (it *panicAt) NextBatch(b *engine.RowBatch) bool {
	it.n++
	if it.n >= it.at {
		panic("test: injected operator panic")
	}
	return it.in.NextBatch(b)
}

// panicInjector arms a panic at every site matching prefix.
func panicInjector(prefix string, at int) engine.IterWrapper {
	return func(site string, it engine.RowIter) engine.RowIter {
		if strings.HasPrefix(site, prefix) {
			return &panicAt{in: it, at: at}
		}
		return it
	}
}

// drainAll pulls the iterator to end-of-stream and returns its terminal
// error.
func drainAll(it engine.RowIter) error {
	_, err := engine.MaterializeErr(it)
	return err
}

// A panic inside a fragment goroutine (here: the scan parts drained by
// the merge-exchange producers) must surface as the query error through
// the root Err — not crash the process, not leak a goroutine, and not
// pass for a clean end of stream.
func TestInjectedPanicInFragmentContained(t *testing.T) {
	db := bigPipelineDB(8000)
	base := runtime.NumGoroutine()
	it, err := parallel.Exec(context.Background(), db,
		engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: engine.ScanP{Name: "l"}},
		parallel.Options{Workers: 4, MorselSize: 16, Inject: panicInjector("scan:l", 3)})
	if err != nil {
		t.Fatalf("build must survive a runtime-only fault: %v", err)
	}
	streamErr := drainAll(it)
	it.Close()
	if streamErr == nil || !strings.Contains(streamErr.Error(), "panic") {
		t.Fatalf("fragment panic must surface through Err, got %v", streamErr)
	}
	waitForGoroutines(t, base)
}

// When the panicking fragment is the LAST producer of an exchange to
// exit, its exit is what ends the consumer's stream: the panic must be
// recorded before that end of stream becomes observable, or the
// contained panic reads as a clean, truncated result (regression: the
// producers signaled completion before recovering). Every fragment
// panics on its first pull here, so whichever exits last races the
// consumer on every iteration.
func TestInjectedPanicNeverReadsAsCleanEnd(t *testing.T) {
	db := bigPipelineDB(64)
	scanL := engine.ScanP{Name: "l"}
	plans := []engine.Plan{
		scanL, // merge / ordered merge
		engine.CoalesceP{In: engine.UnionP{L: scanL, R: scanL}}, // hash partition: a union is unordered
		engine.CoalesceP{In: scanL},                             // ordered partition
	}
	for i := 0; i < 300; i++ {
		for _, p := range plans {
			it, err := parallel.Exec(context.Background(), db, p,
				parallel.Options{Workers: 2, MorselSize: 16, Inject: panicInjector("scan:l", 1)})
			if err != nil {
				continue // a producer panicked before Exec returned: surfaced
			}
			streamErr := drainAll(it)
			it.Close()
			if streamErr == nil {
				t.Fatalf("iteration %d, plan %s: fragment panics read as a clean end of stream", i, p)
			}
		}
	}
}

// A panic unwinding out of the root pull (the consumer goroutine — here
// injected on the merge-exchange output) is the consumer-side boundary:
// guarded must convert it into the query error.
func TestInjectedPanicAtRootContained(t *testing.T) {
	db := bigPipelineDB(8000)
	base := runtime.NumGoroutine()
	it, err := parallel.Exec(context.Background(), db,
		engine.ScanP{Name: "l"},
		parallel.Options{Workers: 4, MorselSize: 16, Inject: panicInjector("exchange:merge", 3)})
	if err != nil {
		t.Fatalf("build must survive a runtime-only fault: %v", err)
	}
	streamErr := drainAll(it)
	it.Close()
	if streamErr == nil || !strings.Contains(streamErr.Error(), "panic") {
		t.Fatalf("root panic must surface through Err, got %v", streamErr)
	}
	waitForGoroutines(t, base)
}

// Early Close racing injected errors and delays: while chaos faults
// tear the pipeline down from inside, the consumer abandons it from
// outside after one row. Every fragment must still exit, across seeds
// and both the ordered and unordered exchange paths (the join plan uses
// repartition; the scan plan the plain merge).
func TestEarlyCloseUnderInjectedErrors(t *testing.T) {
	db := bigPipelineDB(8000)
	base := runtime.NumGoroutine()
	for seed := int64(0); seed < 16; seed++ {
		inj := chaos.New(chaos.Config{Seed: seed, ErrRate: 0.4, DelayRate: 0.3})
		it, err := parallel.Exec(context.Background(), db, bigPipelinePlan(),
			parallel.Options{Workers: 4, MorselSize: 16, Inject: inj.Wrapper()})
		if err != nil {
			// A fault firing in the build-phase join drain is a legal
			// construction error; the executor must still have reaped its
			// fragments.
			waitForGoroutines(t, base)
			continue
		}
		pullRow(it) // zero or one row — either way, abandon mid-flight
		it.Close()
		it.Close() // idempotent under injection too
		waitForGoroutines(t, base)
	}
}
