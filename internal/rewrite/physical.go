package rewrite

import (
	"snapk/internal/engine"
)

// This file is the planner's physical pass: the stats-driven choices
// made after the plan shape is fixed. It runs only when at least one
// PlannerKnobs flag is set and the catalog is an engine database (the
// statistics live on stored tables), so the knobs-off plan carries no
// physical annotation.
//
// Decisions made here:
//
//   - Hash-join build side: pinned from the cardinality estimates (the
//     smaller input builds). The join tree's shape — and with it the
//     output column order — is fixed by the query, so join ordering
//     manifests as build/probe orientation rather than tree rotation.
//   - Hash-table pre-sizing (PreSize): the build-side estimate becomes
//     the map's initial capacity.
//   - Zone-map pruning (Prune): windows sitting directly over a stored
//     scan are marked prunable, letting the executor skip or cut the
//     scan by the table's endpoint envelope.
//
// Worker-count adaptation (AdaptiveWorkers) is decided here too but
// recorded on Decisions — it configures the executor, not the plan.

// estResultRowsPerWorker is the estimated-cardinality step at which the
// adaptive phase grants one more worker: below it a query's rows don't
// amortize worker startup and exchange fan-in.
const estResultRowsPerWorker = 25000

// applyPhysical walks the plan bottom-up, pinning the stats-driven
// physical choices and recording each into dec.
func (rw *rewriter) applyPhysical(p engine.Plan, dec *Decisions) engine.Plan {
	switch n := p.(type) {
	case engine.ScanP:
		return n
	case engine.FilterP:
		n.In = rw.applyPhysical(n.In, dec)
		return n
	case engine.ProjectP:
		n.In = rw.applyPhysical(n.In, dec)
		return n
	case engine.JoinP:
		n.L = rw.applyPhysical(n.L, dec)
		n.R = rw.applyPhysical(n.R, dec)
		rw.planJoin(&n, dec)
		return n
	case engine.UnionP:
		n.L = rw.applyPhysical(n.L, dec)
		n.R = rw.applyPhysical(n.R, dec)
		return n
	case engine.DiffP:
		n.L = rw.applyPhysical(n.L, dec)
		n.R = rw.applyPhysical(n.R, dec)
		return n
	case engine.AggP:
		n.In = rw.applyPhysical(n.In, dec)
		return n
	case engine.CoalesceP:
		n.In = rw.applyPhysical(n.In, dec)
		return n
	case engine.WindowP:
		n.In = rw.applyPhysical(n.In, dec)
		if scan, ok := n.In.(engine.ScanP); ok && rw.opt.Planner.Prune {
			n.Prune = true
			dec.note("prune=%s (zone-map, window %s)", scan.Name, n.T)
		}
		return n
	default:
		return p
	}
}

// planJoin pins the hash-join build side (and, under PreSize, the build
// table's capacity hint) from the cardinality estimates. Joins without
// an equality conjunct run as the overlap sweep and take no physical
// annotations; unknown estimates leave engine.DB.JoinStrategy's own
// fallback (BuildAuto) in place.
func (rw *rewriter) planJoin(n *engine.JoinP, dec *Decisions) {
	// Schema errors skip the join like a missing equi key: the physical
	// pass never fails on a plan the executor would reject with a better
	// error.
	if prep, err := rw.db.PlanJoinPrep(*n); err != nil || !prep.HasEquiKey() {
		return
	}
	lEst, rEst := rw.db.EstimateRows(n.L), rw.db.EstimateRows(n.R)
	if lEst < 0 || rEst < 0 {
		return
	}
	var buildEst int64
	if lEst < rEst {
		n.Build = engine.BuildLeftSide
		buildEst = lEst
		dec.note("build=left (est %d < %d)", lEst, rEst)
	} else {
		n.Build = engine.BuildRightSide
		buildEst = rEst
		dec.note("build=right (est %d ≤ %d)", rEst, lEst)
	}
	if rw.opt.Planner.PreSize && buildEst > 0 {
		n.BuildHint = buildEst
		dec.note("presize=%d (build-side est)", buildEst)
	}
}

// adaptiveWorkers narrows the requested parallelism when the estimated
// result cardinality doesn't justify it: one worker per
// estResultRowsPerWorker estimated rows, never more than requested. An
// unknown estimate keeps the requested width.
func (rw *rewriter) adaptiveWorkers(p engine.Plan, dec *Decisions) {
	if !rw.opt.Planner.AdaptiveWorkers || rw.opt.Parallelism <= 1 {
		return
	}
	est := rw.db.EstimateRows(p)
	if est < 0 {
		return
	}
	w := int(est/estResultRowsPerWorker) + 1
	if w < rw.opt.Parallelism {
		dec.Workers = w
		dec.note("workers=%d (est %d rows)", w, est)
	}
}
