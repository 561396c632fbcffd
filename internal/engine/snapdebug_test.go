//go:build snapdebug

package engine

import (
	"strings"
	"testing"

	"snapk/internal/tuple"
)

// prow builds a one-data-column period row.
func prow(a, begin, end int64) tuple.Tuple {
	return tuple.Tuple{tuple.Int(a), tuple.Int(begin), tuple.Int(end)}
}

// drainCount drives it through capacity-1 batches to end of stream and
// returns the rows delivered.
func drainCount(it RowIter) int {
	n := 0
	b := NewRowBatch(1)
	for it.NextBatch(b) {
		n += b.Len()
	}
	return n
}

func mustPanic(t *testing.T, substrs []string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a snapdebug panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("expected a string panic, got %T: %v", r, r)
		}
		for _, s := range substrs {
			if !strings.Contains(msg, s) {
				t.Errorf("panic %q does not name %q", msg, s)
			}
		}
	}()
	fn()
}

func TestSnapdebugActive(t *testing.T) {
	if !DebugChecks() {
		t.Fatal("DebugChecks() must report true under -tags snapdebug")
	}
}

// TestCheckOrderedPanics feeds a deliberately out-of-begin-order stream
// through CheckOrdered and requires a panic naming the operator.
func TestCheckOrderedPanics(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 5, 6), prow(2, 3, 4)},
	}
	it := CheckOrdered("test sweep operator", NewTableIter(tbl))
	mustPanic(t, []string{"test sweep operator", "out of begin order"}, func() { drainCount(it) })
}

func TestCheckOrderedAcceptsSorted(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 3, 9), prow(2, 3, 4), prow(3, 5, 6)},
	}
	it := CheckOrdered("test sweep operator", NewTableIter(tbl))
	n := drainCount(it)
	it.Close()
	if n != 3 {
		t.Fatalf("wrapper dropped rows: got %d of 3", n)
	}
}

// mutatingIter yields the same backing row twice and mutates it in
// between — the PR 1 aliasing corruption, reproduced on purpose.
type mutatingIter struct {
	row tuple.Tuple
	n   int
}

func (it *mutatingIter) Schema() tuple.Schema { return PeriodSchema(tuple.NewSchema("a")) }

func (it *mutatingIter) NextBatch(b *RowBatch) bool {
	b.Reset()
	if it.n >= 2 {
		return false
	}
	it.n++
	if it.n == 2 {
		it.row[0] = tuple.Int(99)
	}
	b.Append(it.row)
	return true
}

func (it *mutatingIter) Err() error { return nil }

func (it *mutatingIter) Close() {}

// TestCheckNoAliasPanics feeds a stream whose producer mutates a
// previously yielded row through CheckNoAlias and requires a panic
// naming the operator.
func TestCheckNoAliasPanics(t *testing.T) {
	it := CheckNoAlias("mutating test operator", &mutatingIter{row: prow(1, 0, 4)})
	mustPanic(t, []string{"mutating test operator", "mutated a delivered row"}, func() {
		drainCount(it)
		it.Close()
	})
}

// TestCheckNoAliasAcceptsSharedBacking pins that re-yielding the same
// unmutated backing array (scans of one stored table, self-unions) is
// NOT a violation — only observable mutation is.
func TestCheckNoAliasAcceptsSharedBacking(t *testing.T) {
	shared := prow(1, 0, 4)
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{shared, shared},
	}
	it := CheckNoAlias("shared backing scan", NewTableIter(tbl))
	n := drainCount(it)
	it.Close()
	if n != 2 {
		t.Fatalf("wrapper dropped rows: got %d of 2", n)
	}
}

// TestCheckErrCheckedPanics drains a stream to end-of-stream through
// CheckErrChecked and Closes it without consulting Err: the shim must
// panic naming the drain site. Consulting Err first must not.
func TestCheckErrCheckedPanics(t *testing.T) {
	tbl := &Table{
		Schema: PeriodSchema(tuple.NewSchema("a")),
		Rows:   []tuple.Tuple{prow(1, 0, 4)},
	}
	it := CheckErrChecked("test drain site", NewTableIter(tbl))
	drainCount(it)
	mustPanic(t, []string{"test drain site", "without checking Err"}, it.Close)

	it = CheckErrChecked("test drain site", NewTableIter(tbl))
	drainCount(it)
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
}
