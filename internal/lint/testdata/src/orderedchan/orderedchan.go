// Package fixture exercises the orderedchan analyzer: no channel
// construction inside a function that builds an ordered merge
// (an orderedMergeIter composite literal) — bounded buffers deadlock
// the merge under partition skew unless a drain guarantee is argued.
package fixture

type row []int

type orderedMergeIter struct {
	srcs []chan row
}

type queue struct {
	rows []row
}

func bad(n int) *orderedMergeIter {
	it := &orderedMergeIter{}
	for i := 0; i < n; i++ {
		ch := make(chan row, 4) // want "deadlocks under partition skew"
		it.srcs = append(it.srcs, ch)
	}
	return it
}

func badUnbuffered() *orderedMergeIter {
	ch := make(chan row) // want "deadlocks under partition skew"
	_ = ch
	return &orderedMergeIter{}
}

func goodQueue(n int) (*orderedMergeIter, []*queue) {
	qs := make([]*queue, n)
	for i := range qs {
		qs[i] = &queue{}
	}
	return &orderedMergeIter{}, qs
}

func unrelated(n int) chan row {
	// A channel outside any ordered-merge construction is clean.
	return make(chan row, n)
}

func suppressed() *orderedMergeIter {
	//lint:ignore orderedchan fixture: a dedicated consumer always drains this channel before waiting
	ch := make(chan row, 1)
	_ = ch
	return &orderedMergeIter{}
}
