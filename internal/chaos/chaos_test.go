// The chaos grid: qgen-generated queries run across the executor grid
// (sequential / parallel × sweep modes) under deterministic fault
// injection, asserting the fault-domain invariants — no panic escapes
// the query, no fragment goroutine leaks, a stream that ends without an
// error is the complete result (no silent truncation), and every
// surfaced error is a recognized, injected one.
package chaos_test

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"snapk/internal/chaos"
	"snapk/internal/engine"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// waitForGoroutines asserts the process returns to the base goroutine
// count: fragment goroutines of torn-down queries must all exit.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recognized reports whether err is one the fault domain is allowed to
// surface under injection: the injected sentinel, a contained injected
// panic, a cancellation, or a governor limit (not armed here, but the
// set is closed).
func recognized(err error) bool {
	return errors.Is(err, chaos.ErrInjected) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		strings.Contains(err.Error(), "chaos: injected panic")
}

func drainKeys(t *testing.T, it engine.RowIter) ([]string, error) {
	t.Helper()
	var keys []string
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	for it.NextBatch(b) {
		for _, row := range b.Rows {
			keys = append(keys, row.String())
		}
	}
	err := it.Err()
	// Err must be stable: the root reports the same terminal error on
	// every call ("surfaces exactly once" means one error, not one read).
	if again := it.Err(); (err == nil) != (again == nil) {
		t.Fatalf("unstable root Err: first %v, then %v", err, again)
	}
	sort.Strings(keys)
	return keys, err
}

func TestChaosGrid(t *testing.T) {
	g := qgen.New(90125)
	for i := 0; i < 6; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		edb := spec.ToEngineDB()
		want, err := rewrite.Run(edb, q, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatalf("baseline: %v (%s)", err, q)
		}
		baseline := make([]string, 0, len(want.Rows))
		for _, row := range want.Rows {
			baseline = append(baseline, row.String())
		}
		sort.Strings(baseline)
		for _, par := range []int{0, 2, 4} {
			for _, sw := range []rewrite.SweepMode{rewrite.SweepAuto, rewrite.SweepStreaming} {
				for seed := int64(0); seed < 3; seed++ {
					base := runtime.NumGoroutine()
					ctx, cancel := context.WithCancel(context.Background())
					inj := chaos.New(chaos.Config{
						Seed:       int64(i)<<8 | seed,
						ErrRate:    0.15,
						PanicRate:  0.10,
						DelayRate:  0.10,
						CancelRate: 0.05,
						OnCancel:   cancel,
					})
					it, err := rewrite.Stream(ctx, edb, q, rewrite.Options{
						Mode:        rewrite.ModeOptimized,
						Sweep:       sw,
						Parallelism: par,
						Inject:      inj.Wrapper(),
					})
					if err != nil {
						// A fault firing during plan build (eager join builds,
						// sort enforcers) surfaces as a construction error —
						// legal, but it must be a recognized one.
						if !recognized(err) {
							t.Fatalf("par=%d sweep=%v seed=%d: unrecognized build error %v (%s)", par, sw, seed, err, q)
						}
						cancel()
						waitForGoroutines(t, base)
						continue
					}
					got, streamErr := drainKeys(t, it)
					it.Close()
					it.Close() // idempotent under injection too
					cancel()
					if streamErr == nil {
						// No error means the complete result: silent truncation
						// is the one unforgivable outcome.
						if len(got) != len(baseline) {
							t.Fatalf("par=%d sweep=%v seed=%d: clean stream with %d rows, baseline %d (%s)",
								par, sw, seed, len(got), len(baseline), q)
						}
						for j := range got {
							if got[j] != baseline[j] {
								t.Fatalf("par=%d sweep=%v seed=%d: clean stream diverges from baseline at %d (%s)", par, sw, seed, j, q)
							}
						}
					} else if !recognized(streamErr) {
						t.Fatalf("par=%d sweep=%v seed=%d: unrecognized stream error %v (%s)", par, sw, seed, streamErr, q)
					}
					waitForGoroutines(t, base)
				}
			}
		}
	}
}

// TestChaosDeterminism pins that fault placement is a pure function of
// the seed: two injectors with the same config arm the same faults over
// the same wrap sequence.
func TestChaosDeterminism(t *testing.T) {
	cfg := chaos.Config{Seed: 7, ErrRate: 0.3, PanicRate: 0.2}
	a, b := chaos.New(cfg), chaos.New(cfg)
	sites := []string{"scan:r0", "filter", "exchange:merge", "agg", "exchange:partition:3"}
	for _, site := range sites {
		inA, inB := engine.NewTableIter(&engine.Table{}), engine.NewTableIter(&engine.Table{})
		if wrappedA, wrappedB := a.Wrap(site, inA) != inA, b.Wrap(site, inB) != inB; wrappedA != wrappedB {
			t.Fatalf("site %s: divergent wrap decision", site)
		}
	}
	if a.ArmedFaults() != b.ArmedFaults() {
		t.Fatalf("armed faults diverge: %d vs %d", a.ArmedFaults(), b.ArmedFaults())
	}
	if a.ArmedFaults() == 0 {
		t.Fatal("no faults armed across 5 sites at 50% combined rate — mixer is broken")
	}
}

// TestChaosZeroRatesIdentity pins that a zero-rate injector never
// wraps: production code paths with Inject nil and chaos runs with all
// rates zero are the same execution.
func TestChaosZeroRatesIdentity(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1})
	in := engine.NewTableIter(&engine.Table{})
	for _, site := range []string{"scan:x", "filter", "exchange:merge"} {
		if out := inj.Wrap(site, in); out != in {
			t.Fatalf("site %s: zero-rate injector wrapped the iterator", site)
		}
	}
	if inj.ArmedFaults() != 0 {
		t.Fatalf("zero-rate injector armed %d faults", inj.ArmedFaults())
	}
}
