package snapk

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"snapk/internal/algebra"
	"snapk/internal/baseline"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/tuple"
)

// Approach selects how a snapshot query is evaluated. The default, Seq,
// is the paper's provably correct middleware. The remaining approaches
// reproduce prior systems, including their bugs, for comparison studies.
type Approach int

const (
	// Seq is the paper's approach: REWR with a single final coalescing
	// step and pre-aggregated splits (§9). Correct and the unique
	// encoding.
	Seq Approach = iota
	// SeqNaive is Seq without the §9 optimizations: coalescing after
	// every operator and materialized splits. Correct but slower; used
	// for the ablation study.
	SeqNaive
	// NativeIntervalPreservation emulates ATSQL/DBX-style native snapshot
	// support. Exhibits the AG and BD bugs; results are not coalesced.
	NativeIntervalPreservation
	// NativeAlignment emulates the PG-Nat temporal alignment kernel
	// approach. Exhibits the AG bug and set-semantics difference.
	NativeAlignment
)

// String returns the display name used in experiment output.
func (a Approach) String() string {
	switch a {
	case Seq:
		return "Seq"
	case SeqNaive:
		return "Seq-naive"
	case NativeIntervalPreservation:
		return "Nat-ip"
	case NativeAlignment:
		return "Nat-align"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Row is one period-encoded result row: the data values plus the validity
// interval [Begin, End).
type Row struct {
	Values []any
	Begin  int64
	End    int64
}

// Result is a period-encoded query result. Under the Seq approach it is
// the unique K-coalesced interval encoding of the snapshot result.
type Result struct {
	Columns []string
	Rows    []Row
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// String renders the result as an aligned text table, sorted by data
// values then period, e.g. for display in the examples and the CLI.
func (r *Result) String() string {
	header := append(append([]string{}, r.Columns...), "period")
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, header)
	sorted := append([]Row{}, r.Rows...)
	sort.Slice(sorted, func(i, j int) bool { return rowLess(sorted[i], sorted[j]) })
	for _, row := range sorted {
		line := make([]string, 0, len(row.Values)+1)
		for _, v := range row.Values {
			line = append(line, formatValue(v))
		}
		line = append(line, fmt.Sprintf("[%d, %d)", row.Begin, row.End))
		rows = append(rows, line)
	}
	widths := make([]int, len(header))
	for _, line := range rows {
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for li, line := range rows {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if li == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func rowLess(a, b Row) bool {
	for i := range a.Values {
		if i >= len(b.Values) {
			return false
		}
		if cmp := compareAny(a.Values[i], b.Values[i]); cmp != 0 {
			return cmp < 0
		}
	}
	if a.Begin != b.Begin {
		return a.Begin < b.Begin
	}
	return a.End < b.End
}

// compareAny orders result values by type, matching tuple.Compare: NULL
// first, then numerics compared numerically across int64/float64 (so 9
// sorts before 10 — not lexicographically), then strings, then bools.
func compareAny(a, b any) int {
	av, errA := tupleValue(a)
	bv, errB := tupleValue(b)
	if errA != nil || errB != nil {
		// Unknown value types cannot come from the engine; fall back to a
		// stable display-order comparison rather than panicking.
		return strings.Compare(formatValue(a), formatValue(b))
	}
	return tuple.Compare(av, bv)
}

func formatValue(v any) string {
	if v == nil {
		return "NULL"
	}
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%g", f)
	}
	return fmt.Sprintf("%v", v)
}

// At returns the snapshot of the result at time t: the data rows of all
// result rows whose period contains t. This is the timeslice operator
// τ_t on the encoded result.
func (r *Result) At(t int64) [][]any {
	var out [][]any
	for _, row := range r.Rows {
		if row.Begin <= t && t < row.End {
			out = append(out, row.Values)
		}
	}
	return out
}

// Query evaluates a snapshot SQL query with the default (Seq) approach.
// The statement may optionally be wrapped in SEQ VT ( ... ); either way
// it is interpreted under snapshot semantics over the period tables
// registered with CreateTable.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryWith(sql, Seq)
}

// QueryWith evaluates a snapshot SQL query with the chosen approach.
func (db *DB) QueryWith(sql string, ap Approach) (*Result, error) {
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		return nil, err
	}
	return db.evalAlgebra(q, ap)
}

// seqOptions are the rewrite options of every Seq-family evaluation
// (Query, QueryWith, QueryRows) and of Explain: the database's
// configured parallelism and query limits under the given
// coalesce/split mode.
func (db *DB) seqOptions(mode rewrite.Mode) rewrite.Options {
	return rewrite.Options{Mode: mode, Parallelism: db.parallelism, Limits: db.limits}
}

func (db *DB) evalAlgebra(q algebra.Query, ap Approach) (*Result, error) {
	var tbl *engine.Table
	var err error
	switch ap {
	case Seq:
		return db.runSeq(q, rewrite.ModeOptimized)
	case SeqNaive:
		return db.runSeq(q, rewrite.ModeNaive)
	case NativeIntervalPreservation:
		tbl, err = baseline.Eval(db.eng, q, baseline.IntervalPreservation)
	case NativeAlignment:
		tbl, err = baseline.Eval(db.eng, q, baseline.Alignment)
	default:
		return nil, fmt.Errorf("snapk: unknown approach %d", ap)
	}
	if err != nil {
		return nil, err
	}
	return tableToResult(tbl), nil
}

// runSeq evaluates q with the Seq-family rewriting in mode and drains
// its cursor into a Result: Rows takes the root's runs, boxes each run's
// values once and carves every row's Values slice from a shared slab.
// The Result waits for every row, so the cursor pulls full batches from
// the first on.
func (db *DB) runSeq(q algebra.Query, mode rewrite.Mode) (*Result, error) {
	it, err := rewrite.Stream(context.Background(), db.eng, q, db.seqOptions(mode))
	if err != nil {
		return nil, err
	}
	rows := newRows(context.Background(), it)
	rows.whole = true
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		begin, end := rows.Period()
		res.Rows = append(res.Rows, Row{Values: rows.Values(), Begin: begin, End: end})
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// tableToResult boxes a materialized result, the native baselines', from
// slabs sized to it.
func tableToResult(t *engine.Table) *Result {
	res := &Result{Columns: append([]string{}, t.DataSchema().Cols...)}
	n := t.DataArity()
	vals := boxRows(len(t.Rows), func(i int) tuple.Tuple { return t.Rows[i][:n] })
	for i, row := range t.Rows {
		iv := t.Interval(row)
		res.Rows = append(res.Rows, Row{Values: vals[i], Begin: iv.Begin, End: iv.End})
	}
	return res
}

// Explain returns the physical plan Query executes for the given
// snapshot query as an indented operator tree: planned with the same
// options and placed at the database's parallelism, so it shows where
// the logical pass put selections and columns, the form each sweep
// runs in, and the fragments and exchanges of every operator.
func (db *DB) Explain(sql string) (string, error) {
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		return "", err
	}
	p, err := rewrite.Rewrite(q, db.eng, db.seqOptions(rewrite.ModeOptimized))
	if err != nil {
		return "", err
	}
	return parallel.Explain(db.eng, p, max(db.parallelism, 1)).Render(), nil
}
