package engine

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// Filter returns the rows of in satisfying pred, which is compiled
// against the full period schema (so predicates may inspect the period
// attributes too, although REWR never generates such predicates).
func Filter(in *Table, pred algebra.Expr) (*Table, error) {
	c, err := algebra.Compile(pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := &Table{Schema: in.Schema}
	for _, row := range in.Rows {
		if algebra.Truthy(c(row)) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Project evaluates the projection expressions over the data columns and
// carries the period attributes through unchanged — the REWR projection
// pattern Π_{A, Abegin, Aend} (Fig 4).
func Project(in *Table, exprs []algebra.NamedExpr) (*Table, error) {
	fns := make([]algebra.Compiled, len(exprs))
	cols := make([]string, len(exprs))
	for i, ne := range exprs {
		c, err := algebra.Compile(ne.E, in.Schema)
		if err != nil {
			return nil, err
		}
		fns[i] = c
		cols[i] = ne.Name
	}
	// A literal, not NewTable: rows are written directly below, so the
	// table must start with UNKNOWN metadata, not NewTable's
	// known-sorted empty state.
	out := &Table{Schema: PeriodSchema(tuple.NewSchema(cols...))}
	n := len(in.Schema.Cols)
	for _, row := range in.Rows {
		res := make(tuple.Tuple, len(fns)+2)
		for i, f := range fns {
			res[i] = f(row)
		}
		res[len(fns)] = row[n-2]
		res[len(fns)+1] = row[n-1]
		out.Rows = append(out.Rows, res)
	}
	return out, nil
}

// UnionAll concatenates two union-compatible period relations.
func UnionAll(l, r *Table) (*Table, error) {
	if l.Schema.Arity() != r.Schema.Arity() {
		return nil, fmt.Errorf("engine: union-incompatible arities %d and %d", l.Schema.Arity(), r.Schema.Arity())
	}
	out := &Table{Schema: l.Schema, Rows: make([]tuple.Tuple, 0, len(l.Rows)+len(r.Rows))}
	out.Rows = append(out.Rows, l.Rows...)
	out.Rows = append(out.Rows, r.Rows...)
	return out, nil
}

// equiKey describes one extracted equality conjunct l = r usable as a
// hash-join key (l from the left input, r from the right input).
type equiKey struct {
	l, r int
}

// extractEquiKeys pulls conjuncts of the form leftCol = rightCol out of
// pred; residual is the conjunction of the remaining ones, nil when
// nothing but literal TRUEs (a comma join's predicate) remains.
func extractEquiKeys(pred algebra.Expr, joined tuple.Schema, lArity int) (keys []equiKey, residual algebra.Expr) {
	var rest []algebra.Expr
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		if algebra.IsTrue(e) {
			return
		}
		if b, ok := e.(algebra.BinOp); ok {
			if b.Op == algebra.OpAnd {
				walk(b.L)
				walk(b.R)
				return
			}
			if b.Op == algebra.OpEq {
				lc, lok := b.L.(algebra.ColRef)
				rc, rok := b.R.(algebra.ColRef)
				if lok && rok {
					li, ri := joined.Index(lc.Name), joined.Index(rc.Name)
					if li >= 0 && ri >= 0 {
						if li < lArity && ri >= lArity {
							keys = append(keys, equiKey{l: li, r: ri - lArity})
							return
						}
						if ri < lArity && li >= lArity {
							keys = append(keys, equiKey{l: ri, r: li - lArity})
							return
						}
					}
				}
			}
		}
		rest = append(rest, e)
	}
	walk(pred)
	if len(rest) == 0 {
		return keys, nil
	}
	return keys, algebra.And(rest...)
}

// TemporalJoin implements the REWR join pattern (Fig 4): an inner join on
// the non-temporal predicate conjoined with interval overlap, emitting the
// intersection of the input periods as the output period. Equality
// conjuncts between the two sides are executed as a hash join with the
// probe side streamed; remaining conjuncts are evaluated as residual
// predicates. Predicates without any equality conjunct run as an
// endpoint-sorted interval-overlap sweep (see overlapjoin.go) instead of
// a degenerate single-bucket hash join. Both physical strategies are
// the executor's own iterators (stream.go); this entry point merely
// materializes the joint stream.
func TemporalJoin(l, r *Table, pred algebra.Expr) (*Table, error) {
	it, err := NewJoinIter(NewTableIter(l), NewTableIter(r), pred)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return MaterializeErr(it)
}

// Split implements the split operator N_G (Def 8.3) in the one form the
// rewriting uses, N_G(R, R): every row of in is split at the interval
// end points of all rows of in that agree with it on the grouping
// columns, so that any two result intervals within a group are either
// equal or disjoint. groupIdx indexes data columns of in.
func Split(in *Table, groupIdx []int) *Table {
	// Group endpoints live behind a pointer so the hot per-row path can
	// look groups up with a reusable scratch key (map[string(scratch)]
	// compiles to an allocation-free access) and append through the
	// pointer; a key string is materialized once per distinct group.
	type grpEps struct{ ts []interval.Time }
	eps := make(map[string]*grpEps)
	if groupIdx == nil {
		// AppendKey reads nil as "all columns"; a nil group list here
		// means the single global group (empty key).
		groupIdx = []int{}
	}
	var scratch []byte
	for _, row := range in.Rows {
		scratch = row.AppendKey(scratch[:0], groupIdx)
		g, ok := eps[string(scratch)]
		if !ok {
			g = &grpEps{}
			eps[string(scratch)] = g
		}
		iv := rowInterval(row)
		g.ts = append(g.ts, iv.Begin, iv.End)
	}
	for _, g := range eps {
		g.ts = interval.DedupTimes(g.ts)
	}
	out := &Table{Schema: in.Schema}
	n := in.DataArity()
	for _, row := range in.Rows {
		scratch = row.AppendKey(scratch[:0], groupIdx)
		for _, seg := range rowInterval(row).Segments(eps[string(scratch)].ts) {
			nr := row[:n].Clone()
			nr = append(nr, tuple.Int(seg.Begin), tuple.Int(seg.End))
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// TemporalDiff implements snapshot-reducible EXCEPT ALL: the REWR pattern
// N_SCH(Q1)(R1,R2) − N_SCH(Q2)(R2,R1) (Fig 4), fused into the sweep
// kernel's signed count (sweep.go). The output multiplicity at every
// time point is the ℕ monus max(0, |left| − |right|), and a segment
// closes only where it changes, so the output is already the unique
// coalesced encoding (Def 8.2): a Coalesce above it is the identity. The
// table holds each segment as that many distinct rows.
func TemporalDiff(l, r *Table) (*Table, error) {
	out, err := diffSweep(nil, l, dataColumns(l.DataArity()), r, dataColumns(r.DataArity()), true)
	if err != nil {
		return nil, err
	}
	return &Table{Schema: l.Schema, Rows: out.rows}, nil
}
