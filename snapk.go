// Package snapk implements snapshot semantics for temporal multiset
// relations, reproducing Dignös, Glavic, Niu, Böhlen and Gamper:
// "Snapshot Semantics for Temporal Multiset Relations", PVLDB 12(6),
// 2019 (DOI 10.14778/3311880.3311882).
//
// A temporal relation is stored as an SQL period relation: every row
// carries a validity interval [begin, end). A non-temporal SQL query Q
// submitted through Query is interpreted under snapshot semantics: its
// result at every point in time T equals Q evaluated over the snapshot of
// the database at T. Unlike the native temporal features of existing
// DBMSs, this implementation is provably snapshot-reducible for the full
// relational algebra with aggregation over bags — it is free of the
// aggregation gap (AG) bug and the bag difference (BD) bug — and always
// returns the unique K-coalesced interval encoding of the result.
//
// The three-level architecture of the paper is mirrored by the internal
// packages: snapshot K-relations (internal/snapshot, the abstract model),
// period K-relations over the period semiring Kᵀ (internal/telement and
// internal/period, the logical model), and the REWR rewriting over SQL
// period relations executed by an embedded multiset engine
// (internal/rewrite and internal/engine, the implementation). Rewritten
// plans run on one pull-based, batch-at-a-time executor
// (internal/engine/parallel), as W fragments connected by exchanges —
// one fragment and no exchange by default: selection, projection, union
// and the probe side of the temporal join are pipelined and never
// materialize intermediates; the sweep operators (aggregation,
// difference, coalesce) stream over begin-sorted input and otherwise
// consume their input at a materialization boundary.
//
// Quick start:
//
//	db := snapk.New(0, 24)
//	works, _ := db.CreateTable("works", "name", "skill")
//	works.Insert(3, 10, "Ann", "SP")
//	works.Insert(8, 16, "Joe", "NS")
//	res, _ := db.Query(`SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`)
//	fmt.Println(res)
package snapk

import (
	"fmt"
	"math"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// DB is an in-memory temporal database storing SQL period relations over
// a finite integer time domain [Min, Max).
type DB struct {
	eng *engine.DB
	// parallelism is the fragment count used by Seq-family query
	// evaluation and QueryRows; <= 1 means one fragment, no exchange.
	parallelism int
	// limits is the per-query resource-governor configuration applied to
	// Seq-family query evaluation and QueryRows; the zero value disables
	// it.
	limits QueryLimits
}

// QueryLimits configures the per-query resource governor: a wall-clock
// Timeout, a RowLimit on emitted result rows, and a MemBudget in bytes
// over tracked operator state (sweep state, the partitions blocking
// sweeps materialize, hash-join build sides). Zero fields disable the
// corresponding limit; the zero value disables governing entirely.
type QueryLimits = engine.Limits

// Typed resource-governor errors, re-exported so callers can errors.Is
// against Rows.Err (a deadline surfaces as context.DeadlineExceeded).
var (
	// ErrRowLimit ends a query whose result exceeded the configured
	// row limit.
	ErrRowLimit = engine.ErrRowLimit
	// ErrMemBudget ends a query whose tracked operator state exceeded
	// the configured memory budget.
	ErrMemBudget = engine.ErrMemBudget
)

// New returns an empty database over the time domain [minTime, maxTime).
// Time points are opaque integers; map them to hours, days or
// milliseconds as the application requires. New panics if minTime >=
// maxTime.
func New(minTime, maxTime int64) *DB {
	return &DB{eng: engine.NewDB(interval.NewDomain(minTime, maxTime))}
}

// SetParallelism sets the number of fragments per partitioned operator
// used by Seq and SeqNaive query evaluation (Query, QueryWith and
// QueryRows). There is one executor: n > 1 runs each partitioned
// operator as n fragments connected by exchanges, n <= 1 (the default)
// runs the same plan as one fragment on the caller's goroutine, with no
// exchange. Results are multiset-identical at every setting. It returns
// db for chaining.
func (db *DB) SetParallelism(n int) *DB {
	db.parallelism = n
	return db
}

// SetQueryLimits installs per-query resource limits enforced on every
// subsequent Seq or SeqNaive evaluation (Query, QueryWith) and streaming cursor
// (QueryRows): a tripped limit fails that query — Query returns the
// governor's typed error, a cursor ends its stream and reports it
// through Rows.Err — without affecting the database or other queries.
// The zero value removes all limits. It returns db for chaining.
func (db *DB) SetQueryLimits(l QueryLimits) *DB {
	db.limits = l
	return db
}

// MinTime returns the inclusive lower bound of the time domain.
func (db *DB) MinTime() int64 { return db.eng.Domain().Min }

// MaxTime returns the exclusive upper bound of the time domain.
func (db *DB) MaxTime() int64 { return db.eng.Domain().Max }

// Table is a handle for loading rows into a period relation.
type Table struct {
	db   *DB
	name string
	tbl  *engine.Table
}

// CreateTable registers an empty period relation with the given data
// columns. The validity period is stored separately; do not declare
// period attributes as columns.
func (db *DB) CreateTable(name string, columns ...string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("snapk: table %q needs at least one column", name)
	}
	for _, c := range columns {
		if c == engine.BeginCol || c == engine.EndCol {
			return nil, fmt.Errorf("snapk: column name %q is reserved for the period encoding", c)
		}
	}
	if _, err := db.eng.Table(name); err == nil {
		return nil, fmt.Errorf("snapk: table %q already exists", name)
	}
	schema, err := makeSchema(columns)
	if err != nil {
		return nil, err
	}
	t := db.eng.CreateTable(name, schema)
	return &Table{db: db, name: name, tbl: t}, nil
}

func makeSchema(columns []string) (s tuple.Schema, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("snapk: %v", r)
		}
	}()
	return tuple.NewSchema(columns...), nil
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Columns returns the table's data column names.
func (t *Table) Columns() []string { return append([]string{}, t.tbl.DataSchema().Cols...) }

// Rows returns the current number of stored rows (counting duplicates).
func (t *Table) Rows() int { return t.tbl.Len() }

// Insert appends one row valid during [begin, end). Values must match
// the column count; supported Go types are int, int64, float64, string,
// bool and nil (SQL NULL). Inserting the same values repeatedly raises
// the tuple's multiplicity, as in any multiset relation.
func (t *Table) Insert(begin, end int64, values ...any) error {
	iv, ok := interval.TryNew(begin, end)
	if !ok {
		return fmt.Errorf("snapk: invalid period [%d, %d)", begin, end)
	}
	if !t.db.eng.Domain().ContainsInterval(iv) {
		return fmt.Errorf("snapk: period [%d, %d) outside time domain %s", begin, end, t.db.eng.Domain())
	}
	if len(values) != t.tbl.DataArity() {
		return fmt.Errorf("snapk: table %s has %d columns, got %d values", t.name, t.tbl.DataArity(), len(values))
	}
	row := make(tuple.Tuple, len(values))
	for i, v := range values {
		tv, err := toValue(v)
		if err != nil {
			return fmt.Errorf("snapk: column %s: %w", t.tbl.DataSchema().Cols[i], err)
		}
		row[i] = tv
	}
	t.tbl.Append(row, iv, 1)
	return nil
}

// nonFiniteError refuses a NaN or an infinite float64 as a stored
// value: tuple.Compare has no place for a NaN among the numbers, so
// non-finite floats are kept out where values enter.
type nonFiniteError float64

func (e nonFiniteError) Error() string {
	return fmt.Sprintf("non-finite float %v cannot be stored", float64(e))
}

// toValue converts a value to store, for Insert and Update: what
// tupleValue converts, except NaN and ±Inf, which it refuses with a
// nonFiniteError.
func toValue(v any) (tuple.Value, error) {
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return tuple.Value{}, nonFiniteError(f)
	}
	return tupleValue(v)
}

// tupleValue converts a Go value of a supported type to a tuple value.
func tupleValue(v any) (tuple.Value, error) {
	switch x := v.(type) {
	case nil:
		return tuple.Null, nil
	case int:
		return tuple.Int(int64(x)), nil
	case int64:
		return tuple.Int(x), nil
	case float64:
		return tuple.Float(x), nil
	case string:
		return tuple.String_(x), nil
	case bool:
		return tuple.Bool(x), nil
	default:
		return tuple.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}
