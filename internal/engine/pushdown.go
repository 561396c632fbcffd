package engine

import (
	"snapk/internal/algebra"
	"snapk/internal/interval"
)

// This file is the pushdown of the time window τ_T (WindowP): starting
// from a plan root, the window is moved below every REWR operator the
// temporal algebra allows, so clipping happens at (or near) the scans
// and every operator above processes only the rows that can contribute
// to the windowed result. The planner pushes the user's window with it
// (package rewrite).
//
// # Legality conditions, per rule
//
// τ_T clips each row's validity interval to T and drops rows not
// overlapping T. The rules below state when τ_T commutes with an
// operator; each is exercised by the planner tests and the pushdown
// fuzz corpus (differential check against the clip-at-root oracle).
//
//   - Scan: terminal — the window lands directly above the scan, where
//     the executor applies the zone-map check.
//   - Filter: τ_T ∘ σ_p = σ_p ∘ τ_T iff p reads no period attribute
//     (_begin/_end): clipping changes only the period attributes, and
//     dropped rows fail the overlap test on both sides. A predicate
//     reading a period attribute would see pre-clip values, so the
//     window stays above it (the blocking conjunct is recorded in the
//     decisions). Unknown expression forms conservatively block.
//   - Project: same condition on the projection expressions; the
//     Π_{A, Abegin, Aend} pattern carries periods through unchanged, so
//     data-only expressions commute with clipping.
//   - Join: τ_T(L ⋈ R) = τ_T(L) ⋈ τ_T(R). The temporal join emits the
//     intersection a∩b of the matched intervals, and interval
//     intersection is associative/commutative: (a∩b)∩T = (a∩T)∩(b∩T),
//     with the pair surviving on one side iff it survives on the other.
//     The window is CLONED into both children.
//   - Union: τ_T distributes over UNION ALL trivially (per-row).
//   - Diff: τ_T(L − R) ≡ τ_T(L) − τ_T(R). At every snapshot t ∈ T the
//     ℕ-monus is computed from the same row multiplicities (clipping
//     never changes which rows are live at t ∈ T), and snapshots
//     outside T are dropped on both sides. Both sides are the unique
//     coalesced encoding of that same temporal relation — the
//     difference emits it, and clipping preserves it (see Coalesce
//     below) — so they are equal row for row.
//   - Agg, grouped: like Diff — group membership at each t ∈ T is
//     unchanged by clipping, so the window pushes through plainly.
//   - Agg, global (empty GROUP BY): the aggregate emits rows over the
//     WHOLE time domain, including zero-count gap rows where no input
//     is live. Pushing only below would therefore grow the output
//     (gap rows across the domain instead of clipped to T). The legal
//     form keeps a window ABOVE and pushes a copy below:
//     τ_T(Agg(In)) = τ_T(Agg(τ_T(In))).
//   - Coalesce: exact commute on encodings. Coalesced segments of one
//     data tuple are disjoint and non-adjacent; intersecting each with
//     T only shrinks or drops them, so the clipped output is again the
//     unique coalesced encoding — of the clipped relation.
//   - Window: two windows merge by interval intersection; an empty
//     intersection leaves a zero-interval window (clips everything).

// periodCol reports whether name is one of the period attributes.
func periodCol(name string) bool {
	return name == BeginCol || name == EndCol
}

// dataOnly reports whether e references no period attribute — the
// Filter/Project legality condition. Unknown expression forms report
// false (conservative: an expression the analysis cannot see through
// must block the push).
func dataOnly(e algebra.Expr) bool {
	return algebra.ColsSatisfy(e, func(c string) bool { return !periodCol(c) })
}

// blockingConjunct returns the first conjunct of e that prevents the
// window push — for the decision notes.
func blockingConjunct(e algebra.Expr) algebra.Expr {
	for _, c := range algebra.Conjuncts(e) {
		if !dataOnly(c) {
			return c
		}
	}
	return e
}

// PushWindow moves τ_T from above p as far toward the scans as the
// legality rules above allow, returning the rewritten plan. note, when
// not nil, receives one line per window that has to stay above an
// operator, and why.
func PushWindow(p Plan, T interval.Interval, note func(format string, args ...any)) Plan {
	if note == nil {
		note = func(string, ...any) {}
	}
	switch n := p.(type) {
	case ScanP:
		return WindowP{T: T, In: n}
	case FilterP:
		if !dataOnly(n.Pred) {
			note("window stays above filter: conjunct %s reads period attributes", blockingConjunct(n.Pred))
			return WindowP{T: T, In: n}
		}
		n.In = PushWindow(n.In, T, note)
		return n
	case ProjectP:
		for _, ne := range n.Exprs {
			if !dataOnly(ne.E) {
				note("window stays above project: expression %s reads period attributes", ne.E)
				return WindowP{T: T, In: n}
			}
		}
		n.In = PushWindow(n.In, T, note)
		return n
	case JoinP:
		n.L = PushWindow(n.L, T, note)
		n.R = PushWindow(n.R, T, note)
		return n
	case UnionP:
		n.L = PushWindow(n.L, T, note)
		n.R = PushWindow(n.R, T, note)
		return n
	case DiffP:
		n.L = PushWindow(n.L, T, note)
		n.R = PushWindow(n.R, T, note)
		return n
	case AggP:
		if len(n.GroupBy) == 0 {
			// Global aggregate: keep a window above (the gap rows span the
			// whole domain) and push a copy below.
			n.In = PushWindow(n.In, T, note)
			return WindowP{T: T, In: n}
		}
		n.In = PushWindow(n.In, T, note)
		return n
	case CoalesceP:
		n.In = PushWindow(n.In, T, note)
		return n
	case WindowP:
		merged, ok := n.T.Intersect(T)
		if !ok {
			// Disjoint windows: nothing survives. The zero interval is the
			// clip-everything window.
			return WindowP{In: n.In}
		}
		return PushWindow(n.In, merged, note)
	default:
		// Unknown node: conservative — clip above it.
		return WindowP{T: T, In: p}
	}
}
