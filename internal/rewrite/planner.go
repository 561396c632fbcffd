package rewrite

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/obs"
)

// This file is the planner entry point: the phased replacement for the
// rule-only rewriter. PlanQuery runs four explicit phases —
//
//	1. logical rewrite   — the stats-free logical pass (algebra.Optimize:
//	                       σ-pushdown, σ→⋈ absorption, join-input
//	                       pruning), then the REWR reduction (rewrite.go)
//	2. window placement  — moves the time window τ_T below the REWR
//	                       operators where the temporal algebra allows
//	                       (pushdown.go documents the per-rule legality
//	                       conditions)
//	3. statistics        — per-table interval statistics (engine/stats.go),
//	                       computed lazily and cached on the tables; the
//	                       planner consumes them through engine.DB's
//	                       EstimateRows
//	4. physical          — stats-driven choices: hash-join build side and
//	                       pre-sizing, zone-map scan pruning, adaptive
//	                       worker count (physical.go)
//
// Phase 1 is unconditional: every query path plans through it, and the
// per-snapshot oracle (package snapshot, behind DB.QueryAt) never does,
// so each reducibility check verifies it. Phases 2–4 are gated by
// PlannerKnobs flags, so each is independently ablatable.

// PlannerKnobs enables the cost-aware planner phases individually —
// the ablation switches of the `snapbench -exp opt` study. The zero
// value disables them all.
type PlannerKnobs struct {
	// Pushdown moves the time window (Options.Window) from the plan
	// root below the REWR operators toward the scans. Off, the window
	// clips once at the root. (Selection and column placement is not a
	// knob: it is phase 1.)
	Pushdown bool
	// Prune permits the zone-map check on windowed scans: a stored table
	// whose endpoint envelope is disjoint from the window is skipped
	// outright, and a begin-sorted scan stops at the first row that
	// cannot overlap it — before the executor's morsel split.
	Prune bool
	// PreSize pre-sizes hash-join build tables from the estimated
	// build-side cardinality, removing incremental map growth during the
	// build drain.
	PreSize bool
	// AdaptiveWorkers narrows Options.Parallelism when the estimated
	// result cardinality doesn't justify the requested worker count.
	AdaptiveWorkers bool
}

// AllKnobs returns PlannerKnobs with every phase enabled — the
// all-on configuration of the ablation study.
func AllKnobs() PlannerKnobs {
	return PlannerKnobs{Pushdown: true, Prune: true, PreSize: true, AdaptiveWorkers: true}
}

// Decisions records what the planner chose and why: the worker-count
// override (0 = keep Options.Parallelism) and one human-readable note
// per physical decision, printed by `snapq -explain` so ablation runs
// are diagnosable.
type Decisions struct {
	// Workers is the adaptive worker count; 0 means no override.
	Workers int
	// Notes explains each decision, e.g. "build=left (est 1200 < 50000)".
	Notes []string
}

func (d *Decisions) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// PlanQuery reduces a snapshot query to a physical plan through the
// planner's phases and returns the plan together with the record of
// physical decisions taken. cat must resolve the data schemas of the
// base relations referenced by q; statistics-driven phases additionally
// need cat to be an *engine.DB (otherwise they are skipped — there are
// no stored rows to measure).
func PlanQuery(q algebra.Query, cat algebra.Catalog, opt Options) (engine.Plan, *Decisions, error) {
	// Phase 1a: logical placement. Its rules are bag-algebra identities,
	// so the rewritten plan computes the same unique encoding.
	q, err := algebra.Optimize(q, cat)
	if err != nil {
		return nil, nil, err
	}
	return planQuery(q, cat, opt)
}

// planQuery plans q as written: PlanQuery after the logical pass, which
// has validated q against cat.
func planQuery(q algebra.Query, cat algebra.Catalog, opt Options) (engine.Plan, *Decisions, error) {
	obs.Default.QueriesRun.Add(1)
	dec := &Decisions{}

	// Phase 1b: the REWR reduction.
	rw := newRewriter(cat, opt)
	p, err := rw.rewr(q)
	if err != nil {
		return nil, nil, err
	}
	// The one coalesce of ModeOptimized — elided where the root already
	// emits the unique encoding, whose coalesce is the identity.
	if opt.Mode == ModeOptimized && !engine.Coalesced(p) {
		p = engine.CoalesceP{In: p}
	}

	// Phase 2: window placement. Without the pushdown knob the window
	// clips once at the root — the semantics baseline; with it, the
	// pushdown phase moves it toward the scans.
	if opt.Window.Valid() {
		if opt.Planner.Pushdown {
			p = rw.pushWindow(p, opt.Window, dec)
		} else {
			p = engine.WindowP{T: opt.Window, In: p}
		}
	}

	// Phases 3+4: statistics (lazily computed and cached on the stored
	// tables) feed the physical pass, which runs only when a knob is set.
	if opt.Planner != (PlannerKnobs{}) && rw.db != nil {
		p = rw.applyPhysical(p, dec)
		rw.adaptiveWorkers(p, dec)
	}
	return p, dec, nil
}
