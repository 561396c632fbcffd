package engine

import (
	"fmt"
	"slices"
	"strings"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// Plan is a physical plan node over period relations. Plans are produced
// from snapshot-semantics queries by the REWR rewriting (package rewrite)
// and executed by package parallel; DB.Exec is the reference evaluator.
type Plan interface {
	planNode()
	String() string
}

// ScanP scans a stored period relation.
type ScanP struct{ Name string }

// FilterP filters rows by a predicate over the data columns.
type FilterP struct {
	Pred algebra.Expr
	In   Plan
}

// ProjectP projects the data columns (periods carried through), the
// Π_{A, Abegin, Aend} pattern of Fig 4.
type ProjectP struct {
	Exprs []algebra.NamedExpr
	In    Plan
}

// JoinP is the temporal join pattern of Fig 4: predicate ∧ overlap with
// period intersection. How it executes — hash join or overlap sweep,
// which side builds, how large the build table starts — is
// DB.JoinStrategy's decision, made from the node and the statistics.
type JoinP struct {
	L, R Plan
	Pred algebra.Expr
}

// UnionP is UNION ALL.
type UnionP struct{ L, R Plan }

// DiffP is snapshot-reducible EXCEPT ALL via split (Fig 4). Both
// physical forms emit the unique coalesced encoding (see Coalesced).
// When both children are begin-ordered (BeginOrder) the executor runs
// the ℕ-monus difference as a two-input merge sweep with O(open
// intervals + active groups) state instead of materializing both
// inputs.
type DiffP struct{ L, R Plan }

// AggP is snapshot-reducible aggregation via split (Fig 4); PreAgg
// selects the §9 pre-aggregation optimization, whose sweeps emit the
// unique coalesced encoding (the naive materialized split emits one row
// per elementary segment; see Coalesced). When PreAgg is set and the
// input is begin-ordered (BeginOrder) the executor runs the
// pre-aggregated sweep incrementally with O(active-groups) state
// instead of materializing the input first.
type AggP struct {
	GroupBy []string
	Aggs    []algebra.AggSpec
	PreAgg  bool
	In      Plan
}

// CoalesceP applies the coalesce operator C (Def 8.2). It is the
// identity on an input that already is the unique encoding, so the
// planner places it only where Coalesced reports false. When the input
// is begin-ordered (BeginOrder) the executor coalesces incrementally
// with O(active-groups) state.
type CoalesceP struct{ In Plan }

// WindowP is the timeslice operator τ_T over period encodings: every
// row's validity interval is clipped to the window T, and rows not
// overlapping T are dropped. Snapshot-reducibility (Thm 6.3/7.2) lets
// the planner push every window of Options.Window from the plan root
// toward the scans (package rewrite's pushdown.go documents the
// per-operator rules). Clipping takes max(begin, T.Begin), which is
// non-decreasing for begin-sorted input, so WindowP preserves the
// interval-endpoint sort property.
//
// A WindowP node always clips — an invalid T yields the empty result;
// "no window" is expressed by not inserting the node. A window directly
// over a stored-table scan is also a zone-map check, which the executor
// always applies: a scan whose min/max endpoint envelope is disjoint
// from T is skipped outright, and a begin-sorted scan stops at the
// first begin ≥ T.End (PruneWindowScan). EXPLAIN marks such a window
// "prune".
type WindowP struct {
	T  interval.Interval
	In Plan
}

func (ScanP) planNode()     {}
func (FilterP) planNode()   {}
func (ProjectP) planNode()  {}
func (JoinP) planNode()     {}
func (UnionP) planNode()    {}
func (DiffP) planNode()     {}
func (AggP) planNode()      {}
func (CoalesceP) planNode() {}
func (WindowP) planNode()   {}

func (p ScanP) String() string   { return p.Name }
func (p FilterP) String() string { return fmt.Sprintf("Filter[%s](%s)", p.Pred, p.In) }
func (p ProjectP) String() string {
	parts := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		parts[i] = fmt.Sprintf("%s→%s", ne.E, ne.Name)
	}
	return fmt.Sprintf("Project[%s](%s)", strings.Join(parts, ","), p.In)
}
func (p JoinP) String() string  { return fmt.Sprintf("TJoin[%s](%s, %s)", p.Pred, p.L, p.R) }
func (p UnionP) String() string { return fmt.Sprintf("UnionAll(%s, %s)", p.L, p.R) }
func (p DiffP) String() string  { return fmt.Sprintf("TDiff(%s, %s)", p.L, p.R) }
func (p AggP) String() string {
	mode := "naive"
	if p.PreAgg {
		mode = "preagg"
	}
	return fmt.Sprintf("TAgg[%v;%s](%s)", p.GroupBy, mode, p.In)
}
func (p CoalesceP) String() string { return fmt.Sprintf("Coalesce(%s)", p.In) }
func (p WindowP) String() string {
	return fmt.Sprintf("Window[%s](%s)", p.T, p.In)
}

// Inputs returns the input plans of p in execution order (left before
// right), nil for a scan.
func Inputs(p Plan) []Plan {
	switch n := p.(type) {
	case FilterP:
		return []Plan{n.In}
	case ProjectP:
		return []Plan{n.In}
	case JoinP:
		return []Plan{n.L, n.R}
	case UnionP:
		return []Plan{n.L, n.R}
	case DiffP:
		return []Plan{n.L, n.R}
	case AggP:
		return []Plan{n.In}
	case CoalesceP:
		return []Plan{n.In}
	case WindowP:
		return []Plan{n.In}
	default:
		return nil
	}
}

// CountCoalesce returns the number of coalesce operators in the plan,
// used by the §9 ablation to report plan shape.
func CountCoalesce(p Plan) int {
	n := 0
	if _, ok := p.(CoalesceP); ok {
		n = 1
	}
	for _, in := range Inputs(p) {
		n += CountCoalesce(in)
	}
	return n
}

// BeginOrder is the rule of begin-order propagation, applied one plan
// level at a time: given whether each input of p (in Inputs order)
// yields rows by ascending interval begin, it reports whether p's output
// does, and whether p, a sweep, runs its streaming form.
//
// A scan is ordered when its stored table is begin-sorted (an unknown
// table is not). Filter and Project carry the period attributes through
// unchanged, and Window maps begin to max(begin, T.Begin), which is
// monotone, so all three keep their input's order. Unions
// (concatenation), joins (intersection periods) and the sweeps' own
// outputs make no order guarantee. A sweep streams exactly when every
// input is ordered — an aggregation only with PreAgg, since the naive
// materialized split has no streaming form — and otherwise materializes
// its input, which it sorts internally anyway.
func (db *DB) BeginOrder(p Plan, in ...bool) (ordered, streams bool) {
	switch n := p.(type) {
	case ScanP:
		t, err := db.Table(n.Name)
		return err == nil && t.BeginSorted(), false
	case FilterP, ProjectP, WindowP:
		return in[0], false
	case AggP:
		return false, n.PreAgg && in[0]
	case DiffP, CoalesceP:
		return false, !slices.Contains(in, false)
	default:
		return false, false
	}
}

// SweepMode names a sweep's physical form, as EXPLAIN and EXPLAIN
// ANALYZE print it.
func SweepMode(streams bool) string {
	if streams {
		return "streaming"
	}
	return "blocking"
}

// Coalesced reports whether the output of p is guaranteed to be the
// unique coalesced encoding (Def 8.2), so a CoalesceP above it would be
// the identity. The coalesce, the difference (both forms close a
// segment only where the monus changes) and pre-aggregated aggregation
// (both forms merge adjacent equal segments of a group) emit it. A
// filter keeps or drops every copy of a row alike and never moves an
// endpoint, and a window only shrinks or drops intervals, so both keep
// it. A projection keeps it when it is a bijective renaming — a
// distinct bare column reference per input column — since then
// distinct value groups stay distinct; any other projection can merge
// groups. Everything else — scans, joins, unions, the naive split —
// makes no such guarantee.
func Coalesced(p Plan) bool {
	switch n := p.(type) {
	case CoalesceP, DiffP:
		return true
	case AggP:
		return n.PreAgg
	case FilterP, WindowP:
		return Coalesced(Inputs(p)[0])
	case ProjectP:
		return Coalesced(n.In) && renames(n.Exprs, dataCols(n.In))
	default:
		return false
	}
}

// renames reports whether exprs reference every column of cols exactly
// once, as bare column references.
func renames(exprs []algebra.NamedExpr, cols []string) bool {
	if cols == nil || len(exprs) != len(cols) {
		return false
	}
	seen := make([]bool, len(cols))
	for _, ne := range exprs {
		c, ok := ne.E.(algebra.ColRef)
		if !ok {
			return false
		}
		i := slices.Index(cols, c.Name)
		if i < 0 || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// dataCols returns the data column names of p's output where the plan
// alone determines them, nil where they depend on a stored table.
func dataCols(p Plan) []string {
	switch n := p.(type) {
	case ProjectP:
		cols := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			cols[i] = ne.Name
		}
		return cols
	case AggP:
		cols := slices.Clone(n.GroupBy)
		for _, a := range n.Aggs {
			cols = append(cols, a.As)
		}
		return cols
	case FilterP, WindowP, CoalesceP, DiffP, UnionP:
		return dataCols(Inputs(p)[0]) // the (left) input's columns
	default:
		return nil
	}
}

// DB is an in-memory temporal database: named period relations plus a
// plan executor. It stands in for the backend DBMS of the paper's
// middleware architecture.
type DB struct {
	dom    interval.Domain
	tables map[string]*Table
}

// NewDB returns an empty engine database over the given time domain.
func NewDB(dom interval.Domain) *DB {
	return &DB{dom: dom, tables: make(map[string]*Table)}
}

// Domain returns the database's time domain.
func (db *DB) Domain() interval.Domain { return db.dom }

// CreateTable registers an empty period relation with the given data
// schema and returns it for loading.
func (db *DB) CreateTable(name string, data tuple.Schema) *Table {
	t := NewTable(data)
	db.tables[name] = t
	return t
}

// AddTable registers an existing table under name.
func (db *DB) AddTable(name string, t *Table) { db.tables[name] = t }

// Table returns the period relation registered under name.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// RelationSchema implements algebra.Catalog, exposing the data schema
// (without period attributes) of stored tables.
func (db *DB) RelationSchema(name string) (tuple.Schema, error) {
	t, err := db.Table(name)
	if err != nil {
		return tuple.Schema{}, err
	}
	return t.DataSchema(), nil
}

// Exec evaluates a physical plan to a period relation, one fully
// materialized node at a time, ignoring every physical annotation
// (Build, Prune) and running every sweep in its blocking form. It is the reference evaluator the tests
// compare the executor (package parallel) against; nothing outside
// tests calls it.
func (db *DB) Exec(p Plan) (*Table, error) {
	switch n := p.(type) {
	case ScanP:
		return db.Table(n.Name)
	case FilterP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Filter(in, n.Pred)
	case ProjectP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Project(in, n.Exprs)
	case JoinP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return TemporalJoin(l, r, n.Pred)
	case UnionP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return UnionAll(l, r)
	case DiffP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return TemporalDiff(l, r)
	case AggP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return TemporalAggregate(in, n.GroupBy, n.Aggs, n.PreAgg, db.dom)
	case CoalesceP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Coalesce(in), nil
	case WindowP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return ClipWindow(in, n.T), nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", p)
	}
}
