package rewrite

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/obs"
)

// This file is the planner entry point. PlanQuery runs two phases —
//
//	1. logical rewrite   — the stats-free logical pass (algebra.Optimize:
//	                       σ-pushdown, σ→⋈ absorption, join-input
//	                       pruning), then the REWR reduction (rewrite.go)
//	2. window placement  — moves the time window τ_T below the REWR
//	                       operators where the temporal algebra allows
//	                       (engine.PushWindow; internal/engine/pushdown.go
//	                       documents the per-rule legality conditions)
//
// Both are unconditional: every query path plans through them, and the
// per-snapshot oracle (package snapshot, behind DB.QueryAt) never does,
// so each reducibility check verifies them. What the plan leaves open
// the executor decides from the plan and the stored tables' statistics:
// the hash join's build side and initial size (engine.DB.JoinStrategy)
// and the zone-map check of a window directly over a scan.

// Decisions records the planner's notes: one human-readable line per
// window that stays above an operator, and why, printed by `snapq
// -explain`.
type Decisions struct {
	// Workers is always 0, meaning Options.Parallelism stands. It is
	// kept only because the benchmark spine (bench/spine) reads it.
	Workers int
	// Notes explains each decision, e.g. "window stays above filter:
	// conjunct (_begin > 3) reads period attributes".
	Notes []string
}

func (d *Decisions) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// PlanQuery reduces a snapshot query to a physical plan through the
// planner's phases and returns the plan together with the planner's
// notes. cat must resolve the data schemas of the base relations
// referenced by q.
func PlanQuery(q algebra.Query, cat algebra.Catalog, opt Options) (engine.Plan, *Decisions, error) {
	// Phase 1a: logical placement. Its rules are bag-algebra identities,
	// so the rewritten plan computes the same unique encoding.
	q, err := algebra.Optimize(q, cat)
	if err != nil {
		return nil, nil, err
	}
	return planQuery(q, opt)
}

// planQuery plans q as written: PlanQuery after the logical pass, which
// has validated q against the catalog.
func planQuery(q algebra.Query, opt Options) (engine.Plan, *Decisions, error) {
	obs.Default.QueriesRun.Add(1)
	dec := &Decisions{}

	// Phase 1b: the REWR reduction.
	rw := &rewriter{opt: opt}
	p, err := rw.rewr(q)
	if err != nil {
		return nil, nil, err
	}
	// The one coalesce of ModeOptimized — elided where the root already
	// emits the unique encoding, whose coalesce is the identity.
	if opt.Mode == ModeOptimized && !engine.Coalesced(p) {
		p = engine.CoalesceP{In: p}
	}

	// Phase 2: window placement. τ_T commutes with every REWR operator
	// (Thm 6.3/7.2), so the window moves toward the scans.
	if opt.Window.Valid() {
		p = engine.PushWindow(p, opt.Window, dec.note)
	}
	return p, dec, nil
}
