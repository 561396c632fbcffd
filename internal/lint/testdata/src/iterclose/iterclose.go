// Package fixture exercises the iterclose analyzer: obtaining a
// RowIter-shaped value (method set has Next and Close) creates a close
// obligation that is discharged by calling Close, returning the
// iterator, or handing it off.
package fixture

type Row []int

type RowIter interface {
	Next() (Row, bool)
	Close()
}

func open() RowIter { return nil }

// BatchIter is the engine's batch-only shape: no Next at all.
type BatchIter interface {
	NextBatch(*Batch) bool
	Close()
}

type Batch struct{ Rows []Row }

func openBatch() BatchIter { return nil }

func sink(it RowIter) { it.Close() }

func leaks() bool {
	it := open() // want "never closed"
	_, ok := it.Next()
	return ok
}

func leaksBoth() (bool, bool) {
	a := open() // want "never closed"
	b := open() // want "never closed"
	_, okA := a.Next()
	_, okB := b.Next()
	return okA, okB
}

func leaksBatch(b *Batch) bool {
	it := openBatch() // want "never closed"
	return it.NextBatch(b)
}

func closesBatch(b *Batch) bool {
	it := openBatch()
	defer it.Close()
	return it.NextBatch(b)
}

func closes() bool {
	it := open()
	defer it.Close()
	_, ok := it.Next()
	return ok
}

func closesOnOnePath(drain bool) {
	it := open()
	if drain {
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	it.Close()
}

func returnsIt() RowIter {
	it := open()
	return it
}

func handsOff() {
	it := open()
	sink(it)
}

func storesIt() *struct{ it RowIter } {
	it := open()
	return &struct{ it RowIter }{it: it}
}

func suppressed() bool {
	//lint:ignore iterclose fixture: the pipeline is process-lifetime and torn down at exit
	it := open()
	_, ok := it.Next()
	return ok
}
