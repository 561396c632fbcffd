// Package engine is the implementation substrate of the framework: an
// in-memory multiset relational executor over SQL period relations
// (Section 8 of Dignös et al., PVLDB 2019). It plays the role the paper
// assigns to the backend DBMS (Postgres/DBX/DBY): executing the
// non-temporal multiset plans produced by the REWR rewriting (package
// rewrite), including the two auxiliary operators the rewriting needs —
// coalesce (Def 8.2) and split (Def 8.3) — plus the §9 optimizations
// (pre-aggregation intertwined with split).
//
// A SQL period relation is a plain multiset of rows whose last two
// columns, named by BeginCol and EndCol, hold the validity interval
// [begin, end) of each row (PERIODENC, Def 8.1). Row multiplicity is
// represented by duplicate rows, exactly as in SQL.
//
// # Table metadata invariants
//
// Every Table carries cached physical-property metadata — begin-
// sortedness (the order the streaming sweep operators need) and
// coalescedness (whether the rows are their own unique encoding) — so
// the order rule (BeginOrder) can probe scan order in O(1) instead of
// rescanning stored rows on every plan build. The mutator methods
// maintain the cache; any
// code that writes the exported Rows slice directly must call SetRows
// or InvalidateMeta. The full who-sets / who-invalidates / concurrency
// contract, along with every other engine invariant and the snaplint
// analyzer that enforces it, lives in the README's "Invariants &
// linting" section.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"snapk/internal/interval"
	"snapk/internal/period"
	"snapk/internal/telement"
	"snapk/internal/tuple"
)

// BeginCol and EndCol are the reserved names of the period attributes
// Abegin and Aend appended to every period-encoded schema.
const (
	BeginCol = "_begin"
	EndCol   = "_end"
)

// PeriodSchema appends the period attributes to a data schema.
func PeriodSchema(data tuple.Schema) tuple.Schema {
	cols := make([]string, 0, data.Arity()+2)
	cols = append(cols, data.Cols...)
	cols = append(cols, BeginCol, EndCol)
	return tuple.NewSchema(cols...)
}

// propState is a cached three-valued physical property: unknown means
// the accessor falls back to computing the property from the rows.
type propState uint8

const (
	propUnknown propState = iota
	propTrue
	propFalse
)

// tableMeta is the cached physical-property metadata of a table; see
// the package comment for the maintenance invariants.
type tableMeta struct {
	sorted    propState
	lastBegin interval.Time // begin of the last appended row; valid when sorted == propTrue and Rows is non-empty
	coalesced propState
	// bounds tracks whether minBegin/maxEnd describe the stored rows —
	// the interval-endpoint zone map, maintained incrementally by Append
	// next to the sortedness metadata so windowed-scan pruning is O(1)
	// on the load paths. Only meaningful when Rows is non-empty.
	bounds   propState
	minBegin interval.Time
	maxEnd   interval.Time
}

// Table is a SQL period relation: a multiset of period-encoded rows.
// The last two schema columns must be BeginCol and EndCol.
type Table struct {
	Schema tuple.Schema
	Rows   []tuple.Tuple
	meta   tableMeta
	// stats caches the lazily computed interval statistics (stats.go).
	// Atomic so concurrent planners can share one table without locks;
	// mutators drop it via Store(nil).
	stats atomic.Pointer[TableStats]
	// codes caches the dense key codes of the key column sets streaming
	// sweeps have asked for (keycodes.go), held and dropped like stats;
	// Sort and SortByEndpoints drop it too, since codes are per row.
	codes atomic.Pointer[codeCache]
}

// NewTable returns an empty period relation for the given data schema.
// An empty table is trivially begin-sorted and coalesced, so metadata
// tracking starts in the known state and Append maintains it.
func NewTable(data tuple.Schema) *Table {
	return &Table{Schema: PeriodSchema(data), meta: tableMeta{sorted: propTrue, coalesced: propTrue, bounds: propTrue}}
}

// DataArity returns the number of non-period columns.
func (t *Table) DataArity() int { return t.Schema.Arity() - 2 }

// DataSchema returns the schema without the period attributes.
func (t *Table) DataSchema() tuple.Schema {
	return tuple.Schema{Cols: t.Schema.Cols[:t.DataArity()]}
}

// Interval returns the validity interval of row (rowInterval).
func (t *Table) Interval(row tuple.Tuple) interval.Interval { return rowInterval(row) }

// Append adds a row for tuple data valid during iv, repeated mult times.
// Sortedness metadata is maintained incrementally: appending in
// ascending begin order keeps the table known-sorted (the load path of
// every dataset generator and CSV reader), one out-of-order begin makes
// it known-unsorted. Coalescedness can change under any append and
// drops to unknown.
func (t *Table) Append(data tuple.Tuple, iv interval.Interval, mult int64) {
	if !iv.Valid() || mult <= 0 {
		return
	}
	if t.meta.sorted == propTrue {
		if len(t.Rows) == 0 || iv.Begin >= t.meta.lastBegin {
			t.meta.lastBegin = iv.Begin
		} else {
			t.meta.sorted = propFalse
		}
	}
	if t.meta.bounds == propTrue {
		if len(t.Rows) == 0 || iv.Begin < t.meta.minBegin {
			t.meta.minBegin = iv.Begin
		}
		if len(t.Rows) == 0 || iv.End > t.meta.maxEnd {
			t.meta.maxEnd = iv.End
		}
	}
	t.meta.coalesced = propUnknown
	t.dropCaches()
	row := make(tuple.Tuple, 0, len(data)+2)
	row = append(row, data...)
	row = append(row, tuple.Int(iv.Begin), tuple.Int(iv.End))
	// Each duplicate gets its own backing slice so stored siblings never
	// alias (mirroring the emission sites in coalesce and difference).
	t.Rows = append(t.Rows, row)
	for i := int64(1); i < mult; i++ {
		t.Rows = append(t.Rows, row.Clone())
	}
}

// SetRows replaces the stored rows wholesale and drops all cached
// metadata — the required entry point for bulk mutation (the public
// API's sequenced DELETE/UPDATE rewrite the row slice through it).
func (t *Table) SetRows(rows []tuple.Tuple) {
	t.Rows = rows
	t.meta = tableMeta{}
	t.dropCaches()
}

// SetRowsMerging is SetRows for a write that keeps a begin-sorted table
// begin-sorted: rows, in begin order, merged with later, in any order.
// It sorts later by endpoints and merges it in by begin, and records the
// table as begin-sorted. A windowed update or delete splits a row into
// fragments, and those that begin later than the row go to later, so the
// write sorts only as many rows as it split, not the table.
func (t *Table) SetRowsMerging(rows, later []tuple.Tuple) {
	SortRowsByEndpoints(later)
	out := make([]tuple.Tuple, 0, len(rows)+len(later))
	for _, row := range rows {
		n := 0
		for n < len(later) && rowInterval(later[n]).Begin < rowInterval(row).Begin {
			n++
		}
		out = append(append(out, later[:n]...), row)
		later = later[n:]
	}
	t.SetRows(append(out, later...))
	t.meta.sorted = propTrue
	if n := len(t.Rows); n > 0 {
		t.meta.lastBegin = rowInterval(t.Rows[n-1]).Begin
	}
}

// InvalidateMeta drops the cached physical-property metadata. Code that
// has written the exported Rows slice directly (rather than through
// Append, Sort, SortByEndpoints or SetRows) must call it before the
// table is used by the planner again.
func (t *Table) InvalidateMeta() {
	t.meta = tableMeta{}
	t.dropCaches()
}

// dropCaches drops the cached statistics and key codes. Each is stored
// only when set, so a load path appending row by row writes neither.
func (t *Table) dropCaches() {
	if t.stats.Load() != nil {
		t.stats.Store(nil)
	}
	t.dropCodes()
}

// dropCodes drops the cached key codes.
func (t *Table) dropCodes() {
	if t.codes.Load() != nil {
		t.codes.Store(nil)
	}
}

// Len returns the number of rows (counting duplicates).
func (t *Table) Len() int { return len(t.Rows) }

// Clone returns a shallow copy of the table (rows are shared; rows are
// treated as immutable by all operators). Cached metadata is copied:
// it describes the shared row slice. Cached statistics carry over too —
// they are immutable once computed and describe the same multiset — and
// so do cached key codes, since the copy keeps the row order.
func (t *Table) Clone() *Table {
	rows := make([]tuple.Tuple, len(t.Rows))
	copy(rows, t.Rows)
	out := &Table{Schema: t.Schema, Rows: rows, meta: t.meta}
	out.stats.Store(t.stats.Load())
	out.codes.Store(t.codes.Load())
	return out
}

// Sort orders rows by data key, then by interval endpoints — the
// canonical display and comparison order. The endpoint tie-break shares
// the sweep operators' comparator (CompareEndpoints). Data-major order
// is not begin order in general, so sortedness metadata drops to
// unknown; coalescedness is a multiset property and survives the
// permutation. Key codes are per row, so they drop.
func (t *Table) Sort() {
	t.dropCodes()
	n := t.DataArity()
	sort.Slice(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i], t.Rows[j]
		for c := 0; c < n; c++ {
			if cmp := tuple.Compare(a[c], b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return EndpointLess(a, b)
	})
	t.meta.sorted = propUnknown
}

// BeginSorted reports whether the stored rows are ordered by ascending
// interval begin — the property that lets the executor run the
// streaming sweep operators directly over a scan of this table. Maintained
// metadata answers in O(1) on the load/sort paths; only tables built by
// direct Rows writes fall back to the O(n) rescan (and never memoize,
// so concurrent readers stay race-free).
func (t *Table) BeginSorted() bool {
	switch t.meta.sorted {
	case propTrue:
		return true
	case propFalse:
		return false
	}
	return RowsBeginSorted(t.Rows)
}

// SortByEndpoints reorders the stored rows into (begin, end) endpoint
// order, establishing the streaming sweep operators' input order (and
// recording it in the metadata). Key codes are per row, so they drop.
func (t *Table) SortByEndpoints() {
	t.dropCodes()
	SortRowsByEndpoints(t.Rows)
	t.meta.sorted = propTrue
	if n := len(t.Rows); n > 0 {
		t.meta.lastBegin = rowInterval(t.Rows[n-1]).Begin
	}
}

// markCoalesced records that the table is known to be its own coalesced
// encoding — set by Coalesce on its output.
func (t *Table) markCoalesced() { t.meta.coalesced = propTrue }

// KnownCoalesced reports whether cached metadata proves the table is
// already the unique coalesced encoding. False means "unknown or not
// coalesced": callers needing certainty fall back to IsCoalesced, which
// always performs the full check (it is the verifier the differential
// tests rely on, so it must not trust the cache it is meant to test).
func (t *Table) KnownCoalesced() bool { return t.meta.coalesced == propTrue }

// String renders the table with a header row.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Schema)
	c := t.Clone()
	c.Sort()
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String()
}

// ToPeriodRelation applies PERIODENC⁻¹ (Def 8.1): it decodes the table
// into the period ℕ-relation it represents, coalescing per data tuple.
func (t *Table) ToPeriodRelation(alg telement.MAlgebra[int64]) *period.Relation[int64] {
	rel := period.NewRelation(alg, t.DataSchema())
	type acc struct {
		data  tuple.Tuple
		pairs []telement.Seg[int64]
	}
	byTuple := make(map[string]*acc)
	n := t.DataArity()
	var scratch []byte
	for _, row := range t.Rows {
		data := row[:n]
		scratch = data.AppendKey(scratch[:0], nil)
		a, ok := byTuple[string(scratch)]
		if !ok {
			a = &acc{data: data}
			byTuple[string(scratch)] = a
		}
		a.pairs = append(a.pairs, telement.Seg[int64]{Iv: t.Interval(row), Val: 1})
	}
	for _, a := range byTuple {
		rel.Add(a.data, alg.Coalesce(a.pairs))
	}
	return rel
}

// FromPeriodRelation applies PERIODENC (Def 8.1): it encodes a period
// ℕ-relation as a table, emitting one row per interval-annotation pair,
// duplicated per multiplicity.
func FromPeriodRelation(rel *period.Relation[int64]) *Table {
	t := NewTable(rel.Schema())
	for _, e := range rel.Entries() {
		for _, s := range e.Ann.Segs() {
			t.Append(e.Tuple, s.Iv, s.Val)
		}
	}
	return t
}

// EqualAsPeriodRelations reports whether two tables encode
// snapshot-equivalent temporal relations, by decoding both and comparing
// the unique normalized encodings.
func EqualAsPeriodRelations(a, b *Table, alg telement.MAlgebra[int64]) bool {
	return a.ToPeriodRelation(alg).Equal(b.ToPeriodRelation(alg))
}
