package parallel

import (
	"fmt"

	"snapk/internal/engine"
)

// This file holds the placement decisions of the executor as pure
// functions — place (how wide a node runs, whether its output keeps the
// begin order, and which form a sweep runs), exchangeFor (which exchange
// connects two widths) and timeSplits (where a global aggregation's time
// partition cuts, timepart.go) — so that build() switches on them and
// EXPLAIN prints them: the placement a user reads is by construction the
// placement that runs.

// shape is the physical form of a stream: how many fragment iterators
// carry it, and whether each of them is begin-ordered.
type shape struct {
	frags   int
	ordered bool
}

// place decides the shape of plan node p's output at the given worker
// count from the shapes of its inputs, and whether p, a sweep, streams;
// the order answers are engine.DB.BeginOrder's. Morsels are claimed in
// increasing row order, so every scan fragment is an order-preserving
// subsequence of the stored order. hashJoin is engine.DB.JoinStrategy's
// answer for a JoinP and ignored otherwise.
func place(db *engine.DB, p engine.Plan, workers int, hashJoin bool, in ...shape) (out shape, streams bool) {
	ord := make([]bool, 0, 2)
	for _, s := range in {
		ord = append(ord, s.ordered)
	}
	out.ordered, streams = db.BeginOrder(p, ord...)
	switch n := p.(type) {
	case engine.ScanP:
		out.frags = workers
	case engine.FilterP, engine.ProjectP, engine.WindowP:
		// Per-row operators run inside their input's fragments.
		out.frags = in[0].frags
	case engine.UnionP:
		// Fragment i concatenates l_i and r_i.
		out.frags = max(in[0].frags, in[1].frags)
	case engine.JoinP:
		out.frags = 1 // one overlap sweep over the merged inputs
		if hashJoin {
			out.frags = workers // probe fragments over one shared build
		}
	case engine.AggP:
		out.frags = workers
		if len(n.GroupBy) == 0 {
			// A single group: its time partition (timeSplits) or its one
			// sweep leaves one stream.
			out.frags = 1
		}
	case engine.CoalesceP, engine.DiffP:
		out.frags = workers
	default:
		out.frags = 1
	}
	return out, streams
}

// exchangeKind names the exchange between a stream and its consumer.
type exchangeKind uint8

const (
	exNone        exchangeKind = iota
	exMerge                    // W fragments → 1 (order-preserving when the stream is ordered)
	exRepartition              // 1 fragment → W, round-robin by batch
	exHash                     // → W by key: its hash, or its code under a coded streaming sweep (order-preserving under a streaming sweep)
)

// exchangeFor decides which exchange carries a stream of have fragments
// to an operator running want fragments wide. keyed operators (the
// sweeps) need value-equivalent rows in one fragment, so any width above
// one repartitions by key hash even when the widths agree.
func exchangeFor(have, want int, keyed bool) exchangeKind {
	switch {
	case keyed && want > 1:
		return exHash
	case have > want:
		return exMerge
	case have < want:
		return exRepartition
	default:
		return exNone
	}
}

// Explain renders p as db.ExplainPlan does and fills every node's
// Placement with the fragment and exchange decisions Exec makes for p
// at the given worker count (Options.Workers; callers resolve values
// below 1 first for stable output).
func Explain(db *engine.DB, p engine.Plan, workers int) *engine.ExplainNode {
	n := db.ExplainPlan(p)
	explainPlacement(db, p, n, workers)
	return n
}

func explainPlacement(db *engine.DB, p engine.Plan, n *engine.ExplainNode, workers int) shape {
	// A time partition builds its input at one worker, once per range.
	splits := timeSplits(db, p, workers)
	inWorkers := workers
	if len(splits) > 0 {
		inWorkers = 1
	}
	var in []shape
	for i, c := range engine.Inputs(p) {
		in = append(in, explainPlacement(db, c, n.Children[i], inWorkers))
	}
	hash := false
	if j, ok := p.(engine.JoinP); ok {
		// A schema error reports the overlap sweep, like explain's join
		// detail: placement never fails on a plan the executor would
		// reject with a better error.
		if prep, err := db.PlanJoinPrep(j); err == nil {
			hash, _, _ = db.JoinStrategy(j, prep)
		}
	}
	out, streams := place(db, p, workers, hash, in...)
	n.Placement = describe(p, hash, streams, len(splits), in, out)
	return out
}

// describe is the display form of one node's placement; splits is the
// number of a time partition's split instants.
func describe(p engine.Plan, hashJoin, streams bool, splits int, in []shape, out shape) string {
	wide := func(one, many string) string {
		if out.frags == 1 {
			return one
		}
		return fmt.Sprintf(many, out.frags)
	}
	// sweep describes a sweep over inputs ("input" or "inputs").
	sweep := func(inputs, times string) string {
		if exchangeFor(in[0].frags, out.frags, true) == exHash {
			kind := "hash-partition"
			if streams {
				kind = "scan-partition"
			}
			return fmt.Sprintf("fragments ×%d via %s%s", out.frags, kind, times)
		}
		if streams {
			return "sequential sweep over ordered " + inputs
		}
		return "sequential sweep, " + inputs + " materialized"
	}
	switch p.(type) {
	case engine.ScanP:
		return wide("sequential scan", "morsel scan ×%d")
	case engine.FilterP, engine.ProjectP, engine.WindowP:
		return wide("sequential", "fragments ×%d")
	case engine.UnionP:
		return wide("sequential", "paired fragments ×%d")
	case engine.JoinP:
		if !hashJoin {
			return "sequential overlap sweep over merged inputs"
		}
		return wide("sequential probe, build drained via merge", "shared build, probe fragments ×%d")
	case engine.DiffP:
		return sweep("inputs", " ×2")
	case engine.AggP, engine.CoalesceP:
		if splits > 0 {
			return fmt.Sprintf("fragments ×%d via time-partition", splits+1)
		}
		return sweep("input", "")
	default:
		return ""
	}
}
