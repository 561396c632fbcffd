package rewrite

// Internal tests for the window pushdown's BLOCKING paths: predicates and
// projections that read the period attributes cannot legally commute
// with the clip, so the window must stay above them. These plans cannot
// be produced from the public algebra surface (queries address only data
// columns), so the test builds the engine plans directly.

import (
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
)

func TestPushWindowBlockedByPeriodFilter(t *testing.T) {
	T := interval.New(10, 20)
	// A predicate over _begin sees pre-clip values: the window must stay
	// above the filter, with the blocking conjunct recorded.
	p := engine.FilterP{
		Pred: algebra.And(
			algebra.Eq(algebra.Col("k"), algebra.IntC(1)),
			algebra.Lt(algebra.Col(engine.BeginCol), algebra.IntC(15)),
		),
		In: engine.ScanP{Name: "t"},
	}
	dec := &Decisions{}
	got := engine.PushWindow(p, T, dec.note)
	w, ok := got.(engine.WindowP)
	if !ok {
		t.Fatalf("window must stay above the period filter, got %T: %s", got, got)
	}
	if _, ok := w.In.(engine.FilterP); !ok || w.T != T {
		t.Fatalf("blocked push must leave Window[T](Filter(...)), got %s", got)
	}
	notes := strings.Join(dec.Notes, "\n")
	if !strings.Contains(notes, "window stays above filter") || !strings.Contains(notes, engine.BeginCol) {
		t.Fatalf("blocking note must name the offending conjunct:\n%s", notes)
	}
	// The same filter over data columns only lets the window through.
	dataP := engine.FilterP{
		Pred: algebra.Eq(algebra.Col("k"), algebra.IntC(1)),
		In:   engine.ScanP{Name: "t"},
	}
	got = engine.PushWindow(dataP, T, nil)
	f, ok := got.(engine.FilterP)
	if !ok {
		t.Fatalf("data-only filter must stay on top, got %T", got)
	}
	if _, ok := f.In.(engine.WindowP); !ok {
		t.Fatalf("window must pass through the data-only filter: %s", got)
	}
}

func TestPushWindowBlockedByPeriodProjection(t *testing.T) {
	T := interval.New(10, 20)
	// A projection computing from _end would see pre-clip endpoints.
	p := engine.ProjectP{
		Exprs: []algebra.NamedExpr{
			{Name: "dur", E: algebra.Sub(algebra.Col(engine.EndCol), algebra.Col(engine.BeginCol))},
		},
		In: engine.ScanP{Name: "t"},
	}
	dec := &Decisions{}
	got := engine.PushWindow(p, T, dec.note)
	if _, ok := got.(engine.WindowP); !ok {
		t.Fatalf("window must stay above the period projection, got %T: %s", got, got)
	}
	if notes := strings.Join(dec.Notes, "\n"); !strings.Contains(notes, "window stays above project") {
		t.Fatalf("blocking note missing:\n%s", notes)
	}
}

// Nested windows merge by interval intersection; disjoint windows leave
// the clip-everything zero window.
func TestPushWindowMerge(t *testing.T) {
	inner := engine.WindowP{T: interval.New(5, 15), In: engine.ScanP{Name: "t"}}

	got := engine.PushWindow(inner, interval.New(10, 30), nil)
	w, ok := got.(engine.WindowP)
	if !ok || w.T != interval.New(10, 15) {
		t.Fatalf("overlapping windows must merge to the intersection [10, 15): %s", got)
	}
	got = engine.PushWindow(inner, interval.New(20, 30), nil)
	w, ok = got.(engine.WindowP)
	if !ok || w.T.Valid() {
		t.Fatalf("disjoint windows must leave the zero (clip-everything) window: %s", got)
	}
}
