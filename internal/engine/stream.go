package engine

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// RowIter is the executor's one iterator protocol: a pull-based,
// batch-at-a-time stream of period-encoded rows. Schema returns the
// full period schema (data columns plus BeginCol/EndCol) of the
// produced rows.
//
// NextBatch resets b, fills it with up to b.Cap() rows and reports
// whether it delivered at least one; false means end of stream (b is
// left empty). A true return with fewer rows is legal anywhere in the
// stream — operators may emit what they have rather than block for a
// full batch — so consumers must not treat a ragged batch as end of
// input. See batch.go for the ownership rules of a batch.
//
// Err returns nil while the stream is live and after a natural end,
// and the first error that terminated the stream early otherwise (see
// fault.go); it is safe to call after Close. Close releases the
// iterator's resources and those of its children; it is safe to call
// more than once.
//
// Delivered rows are treated as immutable by all operators; consumers
// that mutate a row must Clone it first.
type RowIter interface {
	Schema() tuple.Schema
	NextBatch(b *RowBatch) bool
	Err() error
	Close()
}

// rowInterval returns the validity interval encoded in the last two
// columns of a period row.
func rowInterval(row tuple.Tuple) interval.Interval {
	n := len(row)
	return interval.Interval{Begin: row[n-2].AsInt(), End: row[n-1].AsInt()}
}

// tableIter streams the rows of a materialized table.
type tableIter struct {
	t *Table
	i int
}

// NewTableIter returns an iterator over the rows of t.
func NewTableIter(t *Table) RowIter { return &tableIter{t: t} }

func (it *tableIter) Schema() tuple.Schema { return it.t.Schema }

// NextBatch hands out the next chunk of stored rows — the batch form of
// the table scan: one bounds check and one copy of row references per
// batch instead of a virtual call per row.
func (it *tableIter) NextBatch(b *RowBatch) bool {
	b.Reset()
	n := min(len(it.t.Rows)-it.i, b.Cap())
	if n <= 0 {
		return false
	}
	b.Rows = append(b.Rows, it.t.Rows[it.i:it.i+n]...)
	it.i += n
	return true
}

func (it *tableIter) Close() {}

// Err reports no error: a table scan over materialized rows cannot
// fail mid-stream.
func (it *tableIter) Err() error { return nil }

// Materialize drains the iterator into a table. It does not Close it, and it DISCARDS the
// stream's terminal error — callers that must distinguish a truncated
// drain from a complete one use MaterializeErr instead.
func Materialize(it RowIter) *Table {
	t, _ := MaterializeErr(it)
	return t
}

// filterIter streams the rows of its input satisfying a predicate —
// the pipelined form of Filter. Under batch drive it evaluates the
// predicate over whole child batches, so the per-row cost is one
// compiled-predicate call with no iterator indirection.
type filterIter struct {
	in   RowIter
	cur  batchCursor
	pred algebra.Compiled
}

// NewFilterIter wraps in with the pipelined Filter operator. It takes
// ownership of in: on error the child is closed, so the caller only
// ever closes the returned iterator.
func NewFilterIter(in RowIter, pred algebra.Expr) (RowIter, error) {
	c, err := algebra.Compile(pred, in.Schema())
	if err != nil {
		in.Close()
		return nil, err
	}
	return &filterIter{in: in, cur: batchCursor{in: in}, pred: c}, nil
}

func (it *filterIter) Schema() tuple.Schema { return it.in.Schema() }

// NextBatch filters whole child chunks with a plain range loop — per
// row only the compiled predicate and a conditional append — and emits
// as soon as one chunk yields any passing rows rather than blocking to
// fill the batch (a ragged batch is legal anywhere in the stream).
func (it *filterIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	for out.Len() == 0 {
		rows, ok := it.cur.nextChunk(out.Cap())
		if !ok {
			break
		}
		for _, row := range rows {
			if algebra.Truthy(it.pred(row)) {
				out.Append(row)
			}
		}
	}
	return out.Len() > 0
}

func (it *filterIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *filterIter) Err() error { return it.in.Err() }

// projectIter evaluates projection expressions row-at-a-time, carrying
// the period attributes through unchanged — the pipelined form of
// Project (the Π_{A, Abegin, Aend} pattern of Fig 4).
type projectIter struct {
	in     RowIter
	cur    batchCursor
	fns    []algebra.Compiled
	schema tuple.Schema
}

// NewProjectIter wraps in with the pipelined Project operator. It takes
// ownership of in: on error the child is closed, so the caller only
// ever closes the returned iterator.
func NewProjectIter(in RowIter, exprs []algebra.NamedExpr) (RowIter, error) {
	fns := make([]algebra.Compiled, len(exprs))
	cols := make([]string, len(exprs))
	for i, ne := range exprs {
		c, err := algebra.Compile(ne.E, in.Schema())
		if err != nil {
			in.Close()
			return nil, err
		}
		fns[i] = c
		cols[i] = ne.Name
	}
	return &projectIter{in: in, cur: batchCursor{in: in}, fns: fns, schema: PeriodSchema(tuple.NewSchema(cols...))}, nil
}

func (it *projectIter) Schema() tuple.Schema { return it.schema }

// project evaluates the projection expressions over one input row,
// carrying the period attributes through unchanged.
func (it *projectIter) project(row tuple.Tuple) tuple.Tuple {
	n := len(row)
	res := make(tuple.Tuple, len(it.fns)+2)
	for i, f := range it.fns {
		res[i] = f(row)
	}
	res[len(it.fns)] = row[n-2]
	res[len(it.fns)+1] = row[n-1]
	return res
}

// NextBatch projects one whole child chunk per call with a plain range
// loop: expression evaluation still runs per row (each output row needs
// its own backing array), but the iterator hop above and below is paid
// once per batch.
func (it *projectIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	rows, ok := it.cur.nextChunk(out.Cap())
	if !ok {
		return false
	}
	for _, row := range rows {
		out.Append(it.project(row))
	}
	return true
}

func (it *projectIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *projectIter) Err() error { return it.in.Err() }

// unionIter concatenates two union-compatible streams — the pipelined
// form of UnionAll.
type unionIter struct {
	l, r  RowIter
	lDone bool // l exhausted, now draining r
}

// NewUnionIter concatenates two union-compatible streams. It takes
// ownership of both inputs: on error the children are closed, so the
// caller only ever closes the returned iterator.
func NewUnionIter(l, r RowIter) (RowIter, error) {
	if l.Schema().Arity() != r.Schema().Arity() {
		arities := [2]int{l.Schema().Arity(), r.Schema().Arity()}
		l.Close()
		r.Close()
		return nil, fmt.Errorf("engine: union-incompatible arities %d and %d", arities[0], arities[1])
	}
	return &unionIter{l: l, r: r}, nil
}

func (it *unionIter) Schema() tuple.Schema { return it.l.Schema() }

// NextBatch drains the left input batch-at-a-time, then the right: the
// concatenation needs no per-row work at all, so whole child batches
// pass straight through.
func (it *unionIter) NextBatch(out *RowBatch) bool {
	if !it.lDone {
		if it.l.NextBatch(out) {
			return true
		}
		it.lDone = true
	}
	return it.r.NextBatch(out)
}

func (it *unionIter) Close() {
	it.l.Close()
	it.r.Close()
}

// Err reports the first terminal error of either input.
func (it *unionIter) Err() error { return FirstErr(it.l.Err(), it.r.Err()) }

// hashJoinIter is the pipelined temporal hash join: the build side is
// drained into a hash table on the extracted equi-key columns at
// construction; the probe side then streams, so pipeline chains above
// and below the probe side never materialize. Either input can be the
// build side (size-based selection picks the smaller one); swapped
// reports that the build side is the LEFT input, in which case output
// rows are still composed in left-then-right column order.
type hashJoinIter struct {
	schema   tuple.Schema
	probe    RowIter
	cur      batchCursor
	build    map[string]*joinBucket
	probeIdx []int
	pairs    pairComposer
	swapped  bool
	buildErr error  // terminal error of the (eagerly drained) build side
	scratch  []byte // reusable probe-key buffer: no string allocation per probe row
	// probe state: current probe row and its pending bucket suffix.
	prow   tuple.Tuple
	bucket []tuple.Tuple
	bi     int
}

// joinBucket holds the build rows of one equi-key value behind a
// pointer, so the build loop can append through an allocation-free
// map[string(scratch)] lookup and only materialize a key string once
// per distinct key.
type joinBucket struct{ rows []tuple.Tuple }

// JoinPrep is the compiled form of a temporal join predicate: extracted
// equi-key columns plus the compiled residual over the concatenated data
// schema (nil when the equi keys are the whole predicate). It separates
// predicate analysis from execution so the build phase can run once
// while several probe iterators (one per parallel fragment) share its
// output.
type JoinPrep struct {
	joined     tuple.Schema
	res        algebra.Compiled
	lIdx, rIdx []int
	lA, rA     int
}

// pairComposer turns candidate (left, right) row pairs into join output
// rows: the overlaps() condition of Fig 4, then the residual predicate,
// then the concatenated row with the intersected period. The residual
// runs on a reusable scratch row, so only surviving pairs allocate — one
// exactly-sized row each. A composer is single-goroutine state: every
// join iterator owns its own.
type pairComposer struct {
	lA, rA  int
	res     algebra.Compiled // nil: no residual
	scratch tuple.Tuple      // lA+rA data columns; never leaves compose
}

func (p *JoinPrep) composer() pairComposer {
	c := pairComposer{lA: p.lA, rA: p.rA, res: p.res}
	if c.res != nil {
		c.scratch = make(tuple.Tuple, p.lA+p.rA)
	}
	return c
}

// compose returns the output row of one candidate pair, or false when
// the periods do not overlap or the residual rejects the pair.
func (c *pairComposer) compose(lrow, rrow tuple.Tuple) (tuple.Tuple, bool) {
	iv, ok := rowInterval(lrow).Intersect(rowInterval(rrow))
	if !ok {
		return nil, false
	}
	if c.res != nil {
		copy(c.scratch, lrow[:c.lA])
		copy(c.scratch[c.lA:], rrow[:c.rA])
		if !algebra.Truthy(c.res(c.scratch)) {
			return nil, false
		}
	}
	out := make(tuple.Tuple, c.lA+c.rA+2)
	copy(out, lrow[:c.lA])
	copy(out[c.lA:], rrow[:c.rA])
	out[c.lA+c.rA] = tuple.Int(iv.Begin)
	out[c.lA+c.rA+1] = tuple.Int(iv.End)
	return out, true
}

// PrepareJoin analyses pred over the two data schemas (period attributes
// excluded). The returned prep reports via HasEquiKey whether a hash
// join applies; without any equality conjunct the join must fall back to
// the interval-overlap sweep.
func PrepareJoin(lData, rData tuple.Schema, pred algebra.Expr) (*JoinPrep, error) {
	joined := lData.Concat(rData, "r.")
	keys, residual := extractEquiKeys(pred, joined, lData.Arity())
	p := &JoinPrep{joined: joined, lA: lData.Arity(), rA: rData.Arity()}
	if residual != nil {
		res, err := algebra.Compile(residual, joined)
		if err != nil {
			return nil, err
		}
		p.res = res
	}
	for _, k := range keys {
		p.lIdx = append(p.lIdx, k.l)
		p.rIdx = append(p.rIdx, k.r)
	}
	return p, nil
}

// HasEquiKey reports whether the predicate contains at least one
// equality conjunct usable as a hash-join key.
func (p *JoinPrep) HasEquiKey() bool { return len(p.lIdx) > 0 }

// Schema returns the period schema of the join output.
func (p *JoinPrep) Schema() tuple.Schema { return PeriodSchema(p.joined) }

// JoinBuild is a drained, immutable hash-join build side. It is safe to
// probe from multiple goroutines concurrently: every Probe iterator
// carries its own cursor state and only reads the shared table. left
// records which input was built (the probe side is the other one).
type JoinBuild struct {
	prep  *JoinPrep
	build map[string]*joinBucket
	left  bool
	rows  int64 // build rows retained (the governor's memory-charge basis)
	err   error // terminal error of the build-side drain
}

// Err reports the terminal error of the build-side drain: a build over
// a failed input stream is incomplete, and probing it would silently
// drop matches.
func (b *JoinBuild) Err() error { return b.err }

// Rows returns the number of rows retained in the build table.
func (b *JoinBuild) Rows() int64 { return b.rows }

// Build drains one input into a hash table on the equi-key columns and
// closes it: the right input by default, the LEFT one when left is set
// (the probe iterator then consumes the other input; output column
// order is unaffected). hint pre-sizes the table for roughly that many
// build rows (<= 0 = no hint): a good one removes the map's incremental
// rehash/grow allocations during the drain, a bad one costs at most the
// overshoot's memory. Neither parameter affects results. Build must only
// be called when HasEquiKey reports true.
func (p *JoinPrep) Build(in RowIter, left bool, hint int64) *JoinBuild {
	keyIdx := p.rIdx
	if left {
		keyIdx = p.lIdx
	}
	if hint < 0 {
		hint = 0
	}
	build := make(map[string]*joinBucket, hint)
	var n int64
	var scratch []byte
	batch := NewRowBatch(DefaultBatchSize)
	for in.NextBatch(batch) {
		for _, row := range batch.Rows {
			// SQL comparison semantics: a NULL in any join key compares
			// unknown, so such rows can never match.
			if hasNullAt(row, keyIdx) {
				continue
			}
			scratch = row.AppendKey(scratch[:0], keyIdx)
			b, okB := build[string(scratch)]
			if !okB {
				b = &joinBucket{}
				build[string(scratch)] = b
			}
			//lint:ignore rowretain hash-join build side holds rows read-only; engine producers never reuse yielded row backing (only the batch slice is reused, and the row is copied out of it here)
			b.rows = append(b.rows, row)
			n++
		}
	}
	err := in.Err()
	in.Close()
	return &JoinBuild{prep: p, build: build, left: left, rows: n, err: err}
}

// Probe returns a streaming probe iterator over the non-built input
// against the shared build table. The iterator takes ownership of probe.
func (b *JoinBuild) Probe(probe RowIter) RowIter {
	probeIdx := b.prep.lIdx
	if b.left {
		probeIdx = b.prep.rIdx
	}
	return &hashJoinIter{
		schema:   b.prep.Schema(),
		probe:    probe,
		cur:      batchCursor{in: probe},
		build:    b.build,
		probeIdx: probeIdx,
		pairs:    b.prep.composer(),
		swapped:  b.left,
		buildErr: b.err,
	}
}

// NewJoinIter builds the streaming temporal join over two input streams.
// Equality conjuncts of pred become hash-join keys with the right input
// as build side; without any equi key the join degrades to the
// endpoint-sorted interval-overlap sweep (newOverlapJoinIter) instead of
// a single-bucket hash table. NewJoinIter takes ownership of both
// inputs: consumed or failed children are closed here, so the caller
// only ever closes the returned iterator.
func NewJoinIter(l, r RowIter, pred algebra.Expr) (RowIter, error) {
	lData := tuple.Schema{Cols: l.Schema().Cols[:l.Schema().Arity()-2]}
	rData := tuple.Schema{Cols: r.Schema().Cols[:r.Schema().Arity()-2]}
	prep, err := PrepareJoin(lData, rData, pred)
	if err != nil {
		l.Close()
		r.Close()
		return nil, err
	}
	if !prep.HasEquiKey() {
		return newOverlapJoinIter(l, r, prep)
	}
	// The build side is fully drained and released by the build; the
	// probe side stays open until the joint iterator is closed. A build
	// over a failed stream is incomplete — surface that as a
	// construction error rather than probing a partial table.
	jb := prep.Build(r, false, 0)
	if err := jb.Err(); err != nil {
		l.Close()
		return nil, err
	}
	return jb.Probe(l), nil
}

// JoinStrategy is the one definition of how a temporal join node
// executes; the executor switches on it and EXPLAIN reports it. prep is
// the node's analysed predicate (over the executed input schemas, or
// PlanJoinPrep's static ones). A join with an equality conjunct runs as
// a hash join, any other as the interval-overlap sweep. The hash join
// builds on the left input only when both cardinality estimates are
// known and the left is strictly smaller, and on the right otherwise.
//
// hint is the build side's estimate when it bounds the build rows — the
// side reaches a stored table through Filter, Project and Window only —
// and 0 otherwise. The executor pre-sizes the build table with it; the
// estimate of a join or an aggregation can overshoot its rows by orders
// of magnitude, and the map it would size is not charged to the memory
// budget.
func (db *DB) JoinStrategy(n JoinP, prep *JoinPrep) (hash, buildLeft bool, hint int64) {
	if !prep.HasEquiKey() {
		return false, false, 0
	}
	lEst, rEst := db.EstimateRows(n.L), db.EstimateRows(n.R)
	buildLeft = lEst >= 0 && rEst >= 0 && lEst < rEst
	build, est := n.R, rEst
	if buildLeft {
		build, est = n.L, lEst
	}
	if est > 0 && db.baseTable(build) != nil {
		hint = est
	}
	return true, buildLeft, hint
}

// JoinStrategyName is the display form of a JoinStrategy result, shared
// by EXPLAIN and the EXPLAIN ANALYZE join node.
func JoinStrategyName(hash, buildLeft bool) string {
	switch {
	case !hash:
		return "overlap-sweep"
	case buildLeft:
		return "hash build=left"
	default:
		return "hash build=right"
	}
}

func hasNullAt(row tuple.Tuple, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func (it *hashJoinIter) Schema() tuple.Schema { return it.schema }

// NextBatch runs the probe loop until the output batch is full or the
// probe side is exhausted, reading probe rows batch-at-a-time: the
// iterator hop on both sides of the probe is paid once per batch.
func (it *hashJoinIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit {
		row, ok := it.next(limit)
		if !ok {
			break
		}
		out.Append(row)
	}
	return out.Len() > 0
}

// next is the resumable probe loop: it returns the next output row,
// pulling probe rows (capacity at a time) as buckets run out.
func (it *hashJoinIter) next(capacity int) (tuple.Tuple, bool) {
	for {
		for it.bi < len(it.bucket) {
			brow := it.bucket[it.bi]
			it.bi++
			// Output rows are composed in left-then-right column order
			// whichever side was built.
			lrow, rrow := it.prow, brow
			if it.swapped {
				lrow, rrow = brow, it.prow
			}
			if out, ok := it.pairs.compose(lrow, rrow); ok {
				return out, true
			}
		}
		prow, ok := it.cur.next(capacity)
		if !ok {
			return nil, false
		}
		if hasNullAt(prow, it.probeIdx) {
			continue
		}
		//lint:ignore rowretain probe row is held read-only and replaced by the next probe row
		it.prow = prow
		it.scratch = prow.AppendKey(it.scratch[:0], it.probeIdx)
		if b := it.build[string(it.scratch)]; b != nil {
			it.bucket = b.rows
		} else {
			it.bucket = nil
		}
		it.bi = 0
	}
}

func (it *hashJoinIter) Close() { it.probe.Close() }

// Err reports the build side's terminal error, then the probe side's.
func (it *hashJoinIter) Err() error { return FirstErr(it.buildErr, it.probe.Err()) }
