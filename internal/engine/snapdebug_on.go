//go:build snapdebug

// The snapdebug build tag compiles in a runtime assertion layer for
// the two engine invariants that static analysis cannot fully prove:
// begin-sort order of streams feeding the sweeps, and immutability of
// delivered rows across NextBatch calls. With the tag, CheckOrdered and
// CheckNoAlias wrap iterators with asserting shims that panic naming
// the offending operator; without it (snapdebug_off.go) they are
// identity functions the compiler erases. The qgen equivalence grids
// and the fuzz targets run with these wrappers in place, so a fuzzing
// run under `-tags snapdebug` fails at the operator that broke the
// invariant rather than at a downstream differential mismatch.
package engine

import (
	"fmt"

	"snapk/internal/tuple"
)

// DebugChecks reports whether the snapdebug assertion layer is
// compiled in.
func DebugChecks() bool { return true }

// checkBatch asserts the NextBatch return contract: true iff at least
// one row was delivered.
func checkBatch(op string, ok bool, b *RowBatch) {
	if ok != (b.Len() > 0) {
		panic(fmt.Sprintf("engine: snapdebug: %s broke the NextBatch contract (ok=%v with %d rows)",
			op, ok, b.Len()))
	}
}

// CheckOrdered wraps in with an assertion that its rows are emitted in
// ascending begin order — the begin component of the canonical
// CompareEndpoints (begin, end) order, and exactly the physical
// property the streaming sweeps rely on (morsel fragments and
// Append-maintained tables are begin-sorted but not endpoint-sorted,
// so asserting the full order would reject valid streams). It also
// asserts the NextBatch return contract. The op name appears in the
// panic diagnostic.
func CheckOrdered(op string, in RowIter) RowIter {
	return &checkOrderedIter{op: op, in: in}
}

type checkOrderedIter struct {
	op   string
	in   RowIter
	last int64
	seen bool
}

func (it *checkOrderedIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkOrderedIter) NextBatch(b *RowBatch) bool {
	ok := it.in.NextBatch(b)
	checkBatch(it.op, ok, b)
	for _, row := range b.Rows {
		begin := rowInterval(row).Begin
		if it.seen && begin < it.last {
			panic(fmt.Sprintf("engine: snapdebug: %s emitted rows out of begin order (begin %d after %d)",
				it.op, begin, it.last))
		}
		it.last, it.seen = begin, true
	}
	return ok
}

func (it *checkOrderedIter) Close() { it.in.Close() }

// Err delegates the terminal error: the assertion shim never severs
// the error-carrying protocol.
func (it *checkOrderedIter) Err() error { return it.in.Err() }

// noAliasWindow bounds how many recently delivered rows CheckNoAlias
// keeps under observation. A small ring catches the realistic bug —
// an operator reusing a scratch row it just handed out — without
// retaining the whole stream.
const noAliasWindow = 64

// CheckNoAlias wraps in with an assertion that rows, once delivered,
// are never mutated by the producer: each of the last noAliasWindow
// rows is snapshotted at delivery and re-compared against its live
// backing array before each subsequent NextBatch and on Close — which
// is exactly where the batch-boundary aliasing class bites (a producer
// reusing row backing arrays when it refills its batch). The batch's
// row SLICE being reused is legal and not flagged, and neither are
// distinct rows sharing a backing array (scans of the same stored
// table legitimately do) — only observable mutation, the PR 1
// corruption class. The op name appears in the panic diagnostic.
func CheckNoAlias(op string, in RowIter) RowIter {
	return &checkNoAliasIter{op: op, in: in}
}

type yieldedRow struct {
	live tuple.Tuple // the row as handed to the consumer
	snap tuple.Tuple // private copy taken at delivery
}

type checkNoAliasIter struct {
	op   string
	in   RowIter
	ring [noAliasWindow]yieldedRow
	n    int // rows delivered so far
}

func (it *checkNoAliasIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkNoAliasIter) NextBatch(b *RowBatch) bool {
	it.verify()
	ok := it.in.NextBatch(b)
	checkBatch(it.op, ok, b)
	for _, row := range b.Rows {
		it.ring[it.n%noAliasWindow] = yieldedRow{live: row, snap: row.Clone()}
		it.n++
	}
	return ok
}

func (it *checkNoAliasIter) Close() {
	it.verify()
	it.in.Close()
}

// Err delegates the terminal error: the assertion shim never severs
// the error-carrying protocol.
func (it *checkNoAliasIter) Err() error { return it.in.Err() }

// CheckErrChecked wraps the stream ROOT with an assertion of the
// error-carrying protocol's first rule: a consumer that drives the
// stream to end-of-stream must consult Err before Close. With the tag,
// an exhausted-then-Closed root whose Err was never called panics
// naming op — the drain site that would silently swallow a truncation.
// An early Close (the stream never reported end) is legal and not
// flagged: abandoning a stream is not the same as mistaking a failed
// one for complete.
func CheckErrChecked(op string, in RowIter) RowIter {
	return &checkErrCheckedIter{op: op, in: in}
}

type checkErrCheckedIter struct {
	op      string
	in      RowIter
	eos     bool // the stream reported end-of-stream to the consumer
	checked bool // Err was consulted
}

func (it *checkErrCheckedIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkErrCheckedIter) NextBatch(b *RowBatch) bool {
	ok := it.in.NextBatch(b)
	if !ok {
		it.eos = true
	}
	return ok
}

func (it *checkErrCheckedIter) Err() error {
	it.checked = true
	return it.in.Err()
}

func (it *checkErrCheckedIter) Close() {
	if it.eos && !it.checked {
		panic(fmt.Sprintf("engine: snapdebug: %s drained to end-of-stream and Closed without checking Err — a truncated stream would pass for complete", it.op))
	}
	it.in.Close()
}

func (it *checkNoAliasIter) verify() {
	held := it.n
	if held > noAliasWindow {
		held = noAliasWindow
	}
	for i := 0; i < held; i++ {
		y := it.ring[i]
		if len(y.live) != len(y.snap) {
			panic(fmt.Sprintf("engine: snapdebug: %s mutated a delivered row after NextBatch (length %d -> %d)",
				it.op, len(y.snap), len(y.live)))
		}
		for c := range y.live {
			if y.live[c] != y.snap[c] {
				panic(fmt.Sprintf("engine: snapdebug: %s mutated a delivered row after NextBatch (column %d: %v -> %v)",
					it.op, c, y.snap[c], y.live[c]))
			}
		}
	}
}
