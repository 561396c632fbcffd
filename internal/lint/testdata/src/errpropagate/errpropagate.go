// Package fixture exercises the errpropagate analyzer: a loop that
// drains an iterator-shaped local must consult its stream error (Err
// method, engine.IterErr, or a hand-off), and Materialize — which
// documents that it discards the error — is flagged unconditionally.
package fixture

type Row []int

type Table struct{ Rows []Row }

type RowIter interface {
	Next() (Row, bool)
	Err() error
	Close()
}

type Batch struct{ Rows []Row }

type BatchIter interface {
	RowIter
	NextBatch(*Batch) bool
}

func open() RowIter { return nil }

func openBatch() BatchIter { return nil }

func Materialize(it RowIter) *Table { panic("fixture") }

func MaterializeErr(it RowIter) (*Table, error) { panic("fixture") }

func IterErr(it RowIter) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func drainsAndDrops() int {
	it := open()
	defer it.Close()
	n := 0
	for { // want "stream error is never consulted"
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func drainsBatchAndDrops(b *Batch) int {
	it := openBatch()
	defer it.Close()
	n := 0
	for it.NextBatch(b) { // want "stream error is never consulted"
		n += len(b.Rows)
	}
	return n
}

// BatchOnly is the engine's batch-only shape: no Next at all.
type BatchOnly interface {
	NextBatch(*Batch) bool
	Err() error
	Close()
}

func openBatchOnly() BatchOnly { return nil }

func drainsBatchOnlyAndDrops(b *Batch) int {
	it := openBatchOnly()
	defer it.Close()
	n := 0
	for it.NextBatch(b) { // want "stream error is never consulted"
		n += len(b.Rows)
	}
	return n
}

func drainsBatchOnlyAndChecks(b *Batch) (int, error) {
	it := openBatchOnly()
	defer it.Close()
	n := 0
	for it.NextBatch(b) {
		n += len(b.Rows)
	}
	return n, it.Err()
}

func drainsAndChecksErr() (int, error) {
	it := open()
	defer it.Close()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n, it.Err()
}

func drainsAndChecksIterErr() (int, error) {
	it := open()
	defer it.Close()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n, IterErr(it)
}

func checkStream(it RowIter) error { return it.Err() }

func drainsAndHandsOff() error {
	it := open()
	defer it.Close()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	return checkStream(it)
}

// selfIter pins the receiver exemption: a batch method looping over its
// own Next is self-delegation, not a dropped error.
type selfIter struct{ in RowIter }

func (it *selfIter) Next() (Row, bool) { return it.in.Next() }
func (it *selfIter) Err() error        { return it.in.Err() }
func (it *selfIter) Close()            { it.in.Close() }

func (it *selfIter) NextBatch(b *Batch) bool {
	b.Rows = b.Rows[:0]
	for len(b.Rows) < 64 {
		row, ok := it.Next()
		if !ok {
			break
		}
		b.Rows = append(b.Rows, row)
	}
	return len(b.Rows) > 0
}

func materializes() *Table {
	it := open()
	defer it.Close()
	return Materialize(it) // want "Materialize discards the stream's terminal error"
}

func materializesErr() (*Table, error) {
	it := open()
	defer it.Close()
	return MaterializeErr(it)
}

func suppressedDrain() int {
	it := open()
	defer it.Close()
	n := 0
	//lint:ignore errpropagate fixture: peeking a bounded prefix, truncation is the point
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func suppressedMaterialize() *Table {
	it := open()
	defer it.Close()
	//lint:ignore errpropagate fixture: infallible in-memory source
	return Materialize(it)
}
