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
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/chaos"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
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
		// The begin-sorted copy of the database runs streaming sweeps,
		// the unsorted one blocking sweeps.
		for _, sorted := range []bool{false, true} {
			db := edb
			if sorted {
				db = spec.SortedByBegin().ToEngineDB()
			}
			for _, par := range []int{0, 2, 4} {
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
					it, err := rewrite.Stream(ctx, db, q, rewrite.Options{
						Mode:        rewrite.ModeOptimized,
						Parallelism: par,
						Inject:      inj.Wrapper(),
					})
					if err != nil {
						// A fault firing during plan build (eager join builds)
						// surfaces as a construction error — legal, but it
						// must be a recognized one.
						if !recognized(err) {
							t.Fatalf("sorted=%v par=%d seed=%d: unrecognized build error %v (%s)", sorted, par, seed, err, q)
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
							t.Fatalf("sorted=%v par=%d seed=%d: clean stream with %d rows, baseline %d (%s)",
								sorted, par, seed, len(got), len(baseline), q)
						}
						for j := range got {
							if got[j] != baseline[j] {
								t.Fatalf("sorted=%v par=%d seed=%d: clean stream diverges from baseline at %d (%s)", sorted, par, seed, j, q)
							}
						}
					} else if !recognized(streamErr) {
						t.Fatalf("sorted=%v par=%d seed=%d: unrecognized stream error %v (%s)", sorted, par, seed, streamErr, q)
					}
					waitForGoroutines(t, base)
				}
			}
		}
	}
}

// drainRunKeys is drainKeys through NextRuns, the way the Rows cursor
// pulls the root: each run expands into its count of row keys.
func drainRunKeys(t *testing.T, it engine.RowIter) ([]string, error) {
	t.Helper()
	var keys []string
	b, mult := engine.NewRowBatch(engine.DefaultBatchSize), []int64(nil)
	for it.(engine.RunIter).NextRuns(b, &mult) {
		for i, row := range b.Rows {
			for range mult[i] {
				keys = append(keys, row.String())
			}
		}
	}
	err := it.Err()
	if again := it.Err(); (err == nil) != (again == nil) {
		t.Fatalf("unstable root Err: first %v, then %v", err, again)
	}
	sort.Strings(keys)
	return keys, err
}

// runsDB builds l(v) — four groups of 200 copies of one interval each —
// and r(v), 50 copies of a sub-interval of each group's, so l EXCEPT ALL
// r has segments of multiplicity 200 and 150: runs far longer than any
// fault row. Appended by ascending begin the tables are begin-sorted and
// the difference streams; appended descending, it blocks.
func runsDB(sorted bool) *engine.DB {
	db := engine.NewDB(interval.NewDomain(0, 100))
	l := db.CreateTable("l", tuple.NewSchema("v"))
	r := db.CreateTable("r", tuple.NewSchema("v"))
	for i := range int64(4) {
		v := i
		if !sorted {
			v = 3 - i
		}
		l.Append(tuple.Tuple{tuple.Int(v)}, interval.New(10*v, 10*v+8), 200)
		r.Append(tuple.Tuple{tuple.Int(v)}, interval.New(10*v+2, 10*v+4), 50)
	}
	return db
}

// TestChaosRunsAtRoot puts a high-multiplicity difference at the query
// root, in both sweep forms and at every width, and drains it by
// NextRuns under the grid's faults: a clean stream is the complete
// result, and every error is a recognized one.
func TestChaosRunsAtRoot(t *testing.T) {
	q := algebra.Diff{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}
	for _, sorted := range []bool{false, true} {
		db := runsDB(sorted)
		want, err := rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatal(err)
		}
		baseline := make([]string, 0, len(want.Rows))
		for _, row := range want.Rows {
			baseline = append(baseline, row.String())
		}
		sort.Strings(baseline)
		for _, par := range []int{0, 2, 4} {
			for seed := int64(0); seed < 8; seed++ {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				inj := chaos.New(chaos.Config{Seed: seed, ErrRate: 0.3, PanicRate: 0.1, DelayRate: 0.1, CancelRate: 0.05, OnCancel: cancel})
				it, err := rewrite.Stream(ctx, db, q, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par, Inject: inj.Wrapper()})
				if err != nil {
					if !recognized(err) {
						t.Fatalf("sorted=%v par=%d seed=%d: unrecognized build error %v", sorted, par, seed, err)
					}
					cancel()
					waitForGoroutines(t, base)
					continue
				}
				got, streamErr := drainRunKeys(t, it)
				it.Close()
				cancel()
				if streamErr == nil {
					if strings.Join(got, "\n") != strings.Join(baseline, "\n") {
						t.Fatalf("sorted=%v par=%d seed=%d: clean stream of %d rows diverges from the baseline's %d", sorted, par, seed, len(got), len(baseline))
					}
				} else if !recognized(streamErr) {
					t.Fatalf("sorted=%v par=%d seed=%d: unrecognized stream error %v", sorted, par, seed, streamErr)
				}
				waitForGoroutines(t, base)
			}
		}
	}
}

// An injected error lands after exactly its fault row of rows, whether
// the stream is pulled as rows or as runs far longer than the fault
// row: the fault iterator cuts the run it falls in.
func TestChaosErrorCutsRuns(t *testing.T) {
	db := runsDB(false)
	l, _ := db.Table("l")
	r, _ := db.Table("r")
	for seed := int64(0); seed < 16; seed++ {
		for _, runs := range []bool{false, true} {
			in, err := engine.NewBlockDiffIter(l, r)
			if err != nil {
				t.Fatal(err)
			}
			it := chaos.New(chaos.Config{Seed: seed, ErrRate: 1}).Wrap("diff", in)
			var keys []string
			if runs {
				keys, err = drainRunKeys(t, it)
			} else {
				keys, err = drainKeys(t, it)
			}
			it.Close()
			if !errors.Is(err, chaos.ErrInjected) || !strings.HasSuffix(err.Error(), fmt.Sprintf("after %d rows", len(keys))) {
				t.Fatalf("seed=%d runs=%v: %d rows, then %v", seed, runs, len(keys), err)
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
