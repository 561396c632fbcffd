package parallel

import (
	"fmt"

	"snapk/internal/engine"
)

// This file holds the two placement decisions of the executor as pure
// functions — place (how wide a node runs, and whether its output keeps
// the begin order) and exchangeFor (which exchange connects two widths)
// — so that build() switches on them and EXPLAIN prints them: the
// placement a user reads is by construction the placement that runs.

// shape is the physical form of a stream: how many fragment iterators
// carry it, and whether each of them is begin-ordered.
type shape struct {
	frags   int
	ordered bool
}

// place decides the shape of plan node p's output at the given worker
// count from the shapes of its inputs (for a scan, in[0] describes the
// stored table: ordered iff it is begin-sorted). hashJoin is
// engine.DB.JoinStrategy's answer for a JoinP and ignored otherwise.
func place(p engine.Plan, workers int, hashJoin bool, in ...shape) shape {
	switch n := p.(type) {
	case engine.ScanP:
		// Morsels are claimed in increasing row order, so every fragment
		// is an order-preserving subsequence of the stored order.
		return shape{frags: workers, ordered: in[0].ordered}
	case engine.FilterP, engine.ProjectP, engine.WindowP:
		// Per-row operators run inside their input's fragments and carry
		// (or monotonically clip) the period attributes.
		return in[0]
	case engine.UnionP:
		// Fragment i concatenates l_i and r_i.
		return shape{frags: max(in[0].frags, in[1].frags)}
	case engine.JoinP:
		if hashJoin {
			return shape{frags: workers} // probe fragments over one shared build
		}
		return shape{frags: 1} // one overlap sweep over the merged inputs
	case engine.AggP:
		if len(n.GroupBy) == 0 {
			return shape{frags: 1} // a single group cannot be partitioned
		}
		return shape{frags: workers}
	case engine.CoalesceP, engine.DiffP:
		return shape{frags: workers}
	default:
		return shape{frags: 1}
	}
}

// exchangeKind names the exchange between a stream and its consumer.
type exchangeKind uint8

const (
	exNone        exchangeKind = iota
	exMerge                    // W fragments → 1 (order-preserving when the stream is ordered)
	exRepartition              // 1 fragment → W, round-robin by batch
	exHash                     // → W by key hash (order-preserving under a streaming sweep)
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
	var in []shape
	if scan, ok := p.(engine.ScanP); ok {
		in = []shape{{ordered: db.ScanBeginSorted(scan.Name)}}
	}
	for i, c := range engine.Inputs(p) {
		in = append(in, explainPlacement(db, c, n.Children[i], workers))
	}
	hash := false
	if j, ok := p.(engine.JoinP); ok {
		// A schema error reports the overlap sweep, like explain's join
		// detail: placement never fails on a plan the executor would
		// reject with a better error.
		if prep, err := db.PlanJoinPrep(j); err == nil {
			hash, _ = db.JoinStrategy(j, prep)
		}
	}
	out := place(p, workers, hash, in...)
	n.Placement = describe(p, hash, in, out)
	return out
}

// describe is the display form of one node's placement.
func describe(p engine.Plan, hashJoin bool, in []shape, out shape) string {
	wide := func(one, many string) string {
		if out.frags == 1 {
			return one
		}
		return fmt.Sprintf(many, out.frags)
	}
	// sweep describes a sweep over inputs ("input" or "inputs").
	sweep := func(streaming bool, inputs, times string) string {
		if exchangeFor(in[0].frags, out.frags, true) == exHash {
			kind := "hash-partition"
			if streaming {
				kind = "ordered-partition"
			}
			return fmt.Sprintf("fragments ×%d via %s%s", out.frags, kind, times)
		}
		if streaming {
			return "sequential sweep over ordered " + inputs
		}
		return "sequential sweep, " + inputs + " materialized"
	}
	switch n := p.(type) {
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
		return sweep(n.Streaming, "inputs", " ×2")
	case engine.AggP:
		return sweep(n.Streaming && n.PreAgg, "input", "")
	case engine.CoalesceP:
		return sweep(n.Streaming, "input", "")
	default:
		return ""
	}
}
