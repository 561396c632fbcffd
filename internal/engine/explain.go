package engine

import (
	"fmt"
	"strings"

	"snapk/internal/tuple"
)

// This file is the static EXPLAIN side of the observability layer: a
// plan walker producing a tree isomorphic to the physical plan (one
// ExplainNode per plan node, children in input order), annotated with
// the sweep mode and sort property the executor derives (BeginOrder),
// estimated rows and operator strategy. Fragment/exchange placement is
// filled in by parallel.Explain from the same placement functions the
// executor's build() switches on; the runtime counters of EXPLAIN
// ANALYZE live in obs.go.

// ExplainNode is one operator of an EXPLAIN tree.
type ExplainNode struct {
	// Op names the operator; Detail carries its static annotation
	// (predicate summary, table name, join strategy).
	Op     string
	Detail string
	// Mode is the sweep mode of coalesce/aggregate/difference nodes:
	// "streaming" (every input begin-ordered) or "blocking" (the
	// materializing sweep). Empty for non-sweep operators.
	Mode string
	// Ordered reports the interval-endpoint sort property of the node's
	// output — the physical property driving sweep-mode selection.
	Ordered bool
	// EstRows is the statically known output cardinality, -1 when the
	// planner cannot bound it.
	EstRows int64
	// Placement describes execution placement ("morsel scan ×4",
	// "sequential", "fragments ×4 via scan-partition"); filled by
	// parallel.Explain, empty on a bare ExplainPlan tree.
	Placement string
	Children  []*ExplainNode
}

// ExplainPlan renders p as an annotated EXPLAIN tree. The tree is
// isomorphic to the plan (one node per plan node, children in Inputs
// order), which parallel.Explain relies on. Ordered and Mode are filled
// bottom-up by BeginOrder, the rule the executor applies.
func (db *DB) ExplainPlan(p Plan) *ExplainNode {
	n := &ExplainNode{EstRows: db.EstimateRows(p)}
	var in []bool
	for _, c := range Inputs(p) {
		cn := db.ExplainPlan(c)
		n.Children = append(n.Children, cn)
		in = append(in, cn.Ordered)
	}
	var streams bool
	n.Ordered, streams = db.BeginOrder(p, in...)
	switch t := p.(type) {
	case ScanP:
		n.Op, n.Detail = "Scan", t.Name
	case FilterP:
		n.Op, n.Detail = "Filter", t.Pred.String()
	case ProjectP:
		parts := make([]string, len(t.Exprs))
		for i, ne := range t.Exprs {
			parts[i] = ne.Name
		}
		n.Op, n.Detail = "Project", strings.Join(parts, ",")
	case JoinP:
		n.Op = "Join"
		n.Detail = db.explainJoinDetail(t)
	case UnionP:
		n.Op = "UnionAll"
	case DiffP:
		n.Op = "Diff"
		n.Mode = SweepMode(streams)
	case AggP:
		n.Op = "Agg"
		n.Detail = fmt.Sprintf("group_by=%v", t.GroupBy)
		if t.PreAgg {
			n.Detail += " pre-agg"
		}
		n.Mode = SweepMode(streams)
	case CoalesceP:
		n.Op = "Coalesce"
		n.Mode = SweepMode(streams)
	case WindowP:
		n.Op, n.Detail = "Window", t.T.String()
		if _, ok := t.In.(ScanP); ok {
			n.Detail += " prune"
		}
	default:
		n.Op = fmt.Sprintf("%T", p)
	}
	return n
}

// explainJoinDetail reports the join strategy the executor will pick
// (JoinStrategy). Schema errors (unknown table, unknown column) degrade
// to the bare predicate — EXPLAIN never fails on a plan the executor
// would reject with a better error.
func (db *DB) explainJoinDetail(t JoinP) string {
	prep, err := db.PlanJoinPrep(t)
	if err != nil {
		return t.Pred.String()
	}
	hash, buildLeft, _ := db.JoinStrategy(t, prep)
	return fmt.Sprintf("%s, on %s", JoinStrategyName(hash, buildLeft), t.Pred)
}

// PlanJoinPrep analyses a join node's predicate over the statically
// derived data schemas of its inputs — the form of PrepareJoin for
// callers that report or plan a join without executing its inputs.
func (db *DB) PlanJoinPrep(t JoinP) (*JoinPrep, error) {
	lData, err := db.PlanDataSchema(t.L)
	if err != nil {
		return nil, err
	}
	rData, err := db.PlanDataSchema(t.R)
	if err != nil {
		return nil, err
	}
	return PrepareJoin(lData, rData, t.Pred)
}

// PlanDataSchema derives the data schema (period attributes excluded)
// of a plan's output without executing it — the static input PrepareJoin
// needs for strategy reporting.
func (db *DB) PlanDataSchema(p Plan) (tuple.Schema, error) {
	switch t := p.(type) {
	case ScanP:
		return db.RelationSchema(t.Name)
	case FilterP:
		return db.PlanDataSchema(t.In)
	case ProjectP:
		cols := make([]string, len(t.Exprs))
		for i, ne := range t.Exprs {
			cols[i] = ne.Name
		}
		return tuple.NewSchema(cols...), nil
	case JoinP:
		l, err := db.PlanDataSchema(t.L)
		if err != nil {
			return tuple.Schema{}, err
		}
		r, err := db.PlanDataSchema(t.R)
		if err != nil {
			return tuple.Schema{}, err
		}
		return l.Concat(r, "r."), nil
	case UnionP:
		return db.PlanDataSchema(t.L)
	case DiffP:
		return db.PlanDataSchema(t.L)
	case AggP:
		in, err := db.PlanDataSchema(t.In)
		if err != nil {
			return tuple.Schema{}, err
		}
		_, out, err := AggregateShape(in, t.GroupBy, t.Aggs)
		if err != nil {
			return tuple.Schema{}, err
		}
		return tuple.Schema{Cols: out.Cols[:out.Arity()-2]}, nil
	case CoalesceP:
		return db.PlanDataSchema(t.In)
	case WindowP:
		return db.PlanDataSchema(t.In)
	default:
		return tuple.Schema{}, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

// Render returns the EXPLAIN tree as indented text, one operator per
// line with its annotations.
func (n *ExplainNode) Render() string {
	var b strings.Builder
	renderExplain(&b, n, "", true, true)
	return b.String()
}

func renderExplain(b *strings.Builder, n *ExplainNode, prefix string, last, root bool) {
	if !root {
		if last {
			b.WriteString(prefix + "└─ ")
			prefix += "   "
		} else {
			b.WriteString(prefix + "├─ ")
			prefix += "│  "
		}
	}
	b.WriteString(n.line())
	b.WriteByte('\n')
	for i, c := range n.Children {
		renderExplain(b, c, prefix, i == len(n.Children)-1, false)
	}
}

func (n *ExplainNode) line() string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(&b, " [%s]", n.Detail)
	}
	if n.Mode != "" {
		fmt.Fprintf(&b, " sweep=%s", n.Mode)
	}
	if n.Ordered {
		b.WriteString(" ordered")
	}
	if n.EstRows >= 0 {
		fmt.Fprintf(&b, " est_rows=%d", n.EstRows)
	}
	if n.Placement != "" {
		fmt.Fprintf(&b, "  {%s}", n.Placement)
	}
	return b.String()
}
