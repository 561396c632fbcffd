package engine

import (
	"fmt"
	"slices"

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

// tableIter streams the rows of a materialized table, and their key
// codes when codes is set.
type tableIter struct {
	t     *Table
	i     int
	codes []int32
}

// NewTableIter returns an iterator over the rows of t.
func NewTableIter(t *Table) RowIter { return &tableIter{t: t} }

// NewCodedTableIter returns an iterator over the rows of t that emits
// each row's key code over the columns cols (Table.KeyCodes), and the
// number of codes: the input of a streaming sweep that groups by cols
// through that many codes. Where t has too many rows for codes it
// returns NewTableIter(t) and 0, the number that makes a sweep hash.
func NewCodedTableIter(t *Table, cols []int) (RowIter, int) {
	codes, n, ok := t.KeyCodes(cols)
	if !ok {
		return NewTableIter(t), 0
	}
	return &tableIter{t: t, codes: codes}, n
}

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
	if it.codes != nil {
		b.Codes = append(b.Codes, it.codes[it.i:it.i+n]...)
	}
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

// ColMap is a column-only projection kept as a map instead of copied
// rows: data column i of a stream is column m[i] of its rows, whose last
// two columns are always the period. nil is the identity — the rows are
// laid out as the stream's schema says. Operators that take a ColMap
// read their input through it and copy nothing.
type ColMap []int

// Of returns the row columns of the data columns idx; a negative index
// (count(*)'s argument) stays as it is.
func (m ColMap) Of(idx []int) []int {
	if m == nil {
		return idx
	}
	out := make([]int, len(idx))
	for j, c := range idx {
		out[j] = c
		if c >= 0 {
			out[j] = m[c]
		}
	}
	return out
}

// Data returns the row columns of all n data columns.
func (m ColMap) Data(n int) []int {
	if m == nil {
		return dataColumns(n)
	}
	return m
}

// All returns where every column of a period schema sits in rows w
// columns wide: the data columns through m, the period last. It is nil
// for the identity.
func (m ColMap) All(w int) []int {
	if m == nil {
		return nil
	}
	return append(m[:len(m):len(m)], w-2, w-1)
}

// NewColMapIter returns the rows of in, read through m, laid out as the
// period schema: the one copy a consumer that cannot read through a map
// makes. When m reads every column of in's rows where it stands — a
// rename — the rows pass through and only the schema changes.
func NewColMapIter(in RowIter, schema tuple.Schema, m ColMap) RowIter {
	w := in.Schema().Arity()
	if m == nil || (w == schema.Arity() && slices.Equal(m, dataColumns(w-2))) {
		return &renameIter{RowIter: in, schema: schema}
	}
	fns := make([]algebra.Compiled, len(m))
	for i, c := range m {
		fns[i] = func(row tuple.Tuple) tuple.Value { return row[c] }
	}
	return &projectIter{in: in, cur: batchCursor{in: in}, fns: fns, schema: schema}
}

// renameIter is a stream under another schema of the same layout.
type renameIter struct {
	RowIter
	schema tuple.Schema
}

func (it *renameIter) Schema() tuple.Schema { return it.schema }

// NextRuns forwards the input's runs.
func (it *renameIter) NextRuns(b *RowBatch, mult *[]int64) bool {
	return NextRuns(it.RowIter, b, mult)
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

// NewFilterIter wraps in, whose rows are read through m as the period
// schema schema, with the pipelined Filter operator; the rows that pass
// are in's, so the output is read through m as well. It takes ownership
// of in: on error the child is closed, so the caller only ever closes
// the returned iterator.
func NewFilterIter(in RowIter, schema tuple.Schema, m ColMap, pred algebra.Expr) (RowIter, error) {
	c, err := algebra.CompileAt(pred, schema, m.All(in.Schema().Arity()))
	if err != nil {
		in.Close()
		return nil, err
	}
	return &filterIter{in: in, cur: batchCursor{in: in}, pred: c}, nil
}

func (it *filterIter) Schema() tuple.Schema { return it.in.Schema() }

// NextBatch filters whole child chunks with a plain range loop — per
// row only the compiled predicate and a conditional append, of the row's
// key code too when the child emits codes — and emits
// as soon as one chunk yields any passing rows rather than blocking to
// fill the batch (a ragged batch is legal anywhere in the stream).
func (it *filterIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	for out.Len() == 0 {
		rows, codes, ok := it.cur.nextCodedChunk(out.Cap())
		if !ok {
			break
		}
		for j, row := range rows {
			if algebra.Truthy(it.pred(row)) {
				out.Append(row)
				if codes != nil {
					out.Codes = append(out.Codes, codes[j])
				}
			}
		}
	}
	return out.Len() > 0
}

func (it *filterIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *filterIter) Err() error { return it.in.Err() }

// projectIter evaluates projection expressions row-at-a-time, carrying
// the period attributes through unchanged — the pipelined form of a
// Project that computes an expression (the Π_{A, Abegin, Aend} pattern
// of Fig 4). A column-only Project is a ColMap, which copies nothing,
// until a consumer that cannot read through one needs its rows.
type projectIter struct {
	in     RowIter
	cur    batchCursor
	fns    []algebra.Compiled
	schema tuple.Schema
	arena  rowArena
}

// NewProjectIter wraps in, whose rows are read through m as the period
// schema schema, with the pipelined Project operator. It takes
// ownership of in: on error the child is closed, so the caller only
// ever closes the returned iterator.
func NewProjectIter(in RowIter, schema tuple.Schema, m ColMap, exprs []algebra.NamedExpr) (RowIter, error) {
	at := m.All(in.Schema().Arity())
	fns := make([]algebra.Compiled, len(exprs))
	cols := make([]string, len(exprs))
	for i, ne := range exprs {
		c, err := algebra.CompileAt(ne.E, schema, at)
		if err != nil {
			in.Close()
			return nil, err
		}
		fns[i] = c
		cols[i] = ne.Name
	}
	return &projectIter{in: in, cur: batchCursor{in: in}, fns: fns, schema: PeriodSchema(tuple.NewSchema(cols...))}, nil
}

// ColumnMap returns the columns of schema that a column-only projection
// reads, one per expression, and false when an expression computes a
// value or reads a period column: such a Project needs a projectIter.
func ColumnMap(exprs []algebra.NamedExpr, schema tuple.Schema) ([]int, bool) {
	sel := make([]int, len(exprs))
	for i, ne := range exprs {
		ref, ok := ne.E.(algebra.ColRef)
		if !ok {
			return nil, false
		}
		if sel[i] = schema.Index(ref.Name); sel[i] < 0 || sel[i] >= schema.Arity()-2 {
			return nil, false
		}
	}
	return sel, true
}

func (it *projectIter) Schema() tuple.Schema { return it.schema }

// project evaluates the projection expressions over one input row into
// res, carrying the period attributes through unchanged.
func (it *projectIter) project(res, row tuple.Tuple) {
	n := len(row)
	for i, f := range it.fns {
		res[i] = f(row)
	}
	res[len(it.fns)] = row[n-2]
	res[len(it.fns)+1] = row[n-1]
}

// NextBatch projects one whole child chunk per call with a plain range
// loop. The chunk's output rows are carved from exactly-sized slabs, so
// a batch costs a few allocations rather than one per row; expression
// evaluation still runs per row.
func (it *projectIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	rows, ok := it.cur.nextChunk(out.Cap())
	if !ok {
		return false
	}
	w := len(it.fns) + 2
	it.arena.expect(len(rows))
	for _, row := range rows {
		res := it.arena.row(w)
		it.project(res, row)
		out.Append(res)
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
	build    *JoinBuild
	probeIdx []int
	pairs    pairComposer
	swapped  bool
	// probe state: current probe row and its pending bucket suffix.
	prow   tuple.Tuple
	bucket []tuple.Tuple
	bi     int
}

// JoinPrep is the compiled form of a temporal join predicate: extracted
// equi-key columns plus the compiled residual over the concatenated data
// schema (nil when the equi keys are the whole predicate). It separates
// predicate analysis from execution so the build phase can run once
// while several probe iterators (one per parallel fragment) share its
// output. Each input's rows may be read through a column map (Through)
// and the output cut to some of the joined columns (Project): the maps
// fold into the key and output column lists, so neither an input nor
// the output is copied for them.
type JoinPrep struct {
	joined     tuple.Schema // the concatenated data schema the predicate reads
	res        algebra.Compiled
	lIdx, rIdx []int // the equi-key columns of a left and a right row
	lA, rA     int
	// lCols and rCols hold the row columns of each input's data columns;
	// pick the output's data columns, over a left row of width lw
	// followed by a right row.
	lCols, rCols []int
	lw           int
	pick         []int
	out          tuple.Schema // the output's period schema
	hashMask     uint64       // all ones; tests clear bits to force collisions
}

// pairComposer turns candidate (left, right) row pairs into join output
// rows: the overlaps() condition of Fig 4, then the residual predicate,
// then the output row with the intersected period. The residual runs on
// a reusable scratch row, so a rejected pair allocates nothing. A
// surviving pair is staged — its left row in the output batch, its
// right row in rs — and at the end of the batch flush carves the batch's
// output rows from one slab sized to them, rounded up to its allocation
// size class; the rows that rounding leaves room for start the next
// batch. A composer is single-goroutine state: every join iterator owns
// its own, fresh from JoinPrep.composer, so no two iterators share a
// scratch row, a staging slice or a slab. rs comes from pairStages on
// the first staged pair and goes back at the end of the join's stream
// (release), empty.
type pairComposer struct {
	lCols, rCols []int
	lw           int
	pick         []int
	res          algebra.Compiled // nil: no residual
	scratch      tuple.Tuple      // lA+rA data columns; never leaves stage
	rs           []tuple.Tuple    // the staged pairs' right rows
	free         tuple.Tuple      // the uncarved tail of the last slab
}

// pairStages is the free list of the composers' staging slices: most
// joins emit a batch or less, and each would otherwise grow a slice of
// its own. A list, not a sync.Pool, since a collection empties a pool.
// Its 16 slots cover the joins of a few concurrent queries, one per join
// fragment, and bound what an idle list keeps allocated to 16 batches
// of row headers (96 KiB at DefaultBatchSize).
var pairStages = make(chan []tuple.Tuple, 16)

func (p *JoinPrep) composer() pairComposer {
	c := pairComposer{lCols: p.lCols, rCols: p.rCols, lw: p.lw, pick: p.pick, res: p.res}
	if c.res != nil {
		c.scratch = make(tuple.Tuple, p.lA+p.rA)
	}
	return c
}

// stage adds a candidate pair to out, unless the periods do not overlap
// or the residual rejects it. out must hold staged pairs only, until
// flush turns them into output rows.
func (c *pairComposer) stage(out *RowBatch, lrow, rrow tuple.Tuple) {
	if !rowInterval(lrow).Overlaps(rowInterval(rrow)) {
		return
	}
	if c.res != nil {
		for j, k := range c.lCols {
			c.scratch[j] = lrow[k]
		}
		for j, k := range c.rCols {
			c.scratch[len(c.lCols)+j] = rrow[k]
		}
		if !algebra.Truthy(c.res(c.scratch)) {
			return
		}
	}
	if c.rs == nil {
		select {
		case c.rs = <-pairStages:
		default:
			c.rs = make([]tuple.Tuple, 0, max(out.Cap(), DefaultBatchSize))
		}
	}
	out.Append(lrow)
	//lint:ignore rowretain the right row is held only until flush, at the end of the same NextBatch
	c.rs = append(c.rs, rrow)
}

// flush replaces the pairs staged in out with their output rows: at
// most one allocation per batch.
func (c *pairComposer) flush(out *RowBatch) {
	rs := c.rs
	n := len(c.pick)
	w := n + 2
	for i, rrow := range rs {
		if len(c.free) < w {
			c.free = slices.Grow(tuple.Tuple(nil), (len(rs)-i)*w)
			c.free = c.free[:cap(c.free)]
		}
		row := c.free[:w:w]
		c.free = c.free[w:]
		lrow := out.Rows[i]
		for j, k := range c.pick {
			if k < c.lw {
				row[j] = lrow[k]
			} else {
				row[j] = rrow[k-c.lw]
			}
		}
		iv, _ := rowInterval(lrow).Intersect(rowInterval(rrow))
		row[n] = tuple.Int(iv.Begin)
		row[n+1] = tuple.Int(iv.End)
		out.Rows[i] = row
	}
	clear(rs)
	c.rs = rs[:0]
}

// release returns the staging slice, flushed, to pairStages, unless the
// list is full. The join calls it at the end of its stream, from
// NextBatch: Close may run concurrently with a NextBatch, so it leaves
// the slice alone.
func (c *pairComposer) release() {
	if c.rs != nil {
		select {
		case pairStages <- c.rs:
		default:
		}
		c.rs = nil
	}
}

// PrepareJoin analyses pred over the two data schemas (period attributes
// excluded). The returned prep reports via HasEquiKey whether a hash
// join applies; without any equality conjunct the join must fall back to
// the interval-overlap sweep.
func PrepareJoin(lData, rData tuple.Schema, pred algebra.Expr) (*JoinPrep, error) {
	joined := lData.Concat(rData, "r.")
	keys, residual := extractEquiKeys(pred, joined, lData.Arity())
	p := &JoinPrep{joined: joined, lA: lData.Arity(), rA: rData.Arity(), out: PeriodSchema(joined), hashMask: ^uint64(0)}
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
	return p.Through(nil, p.lA+2, nil), nil
}

// Through returns p reading the left rows, lw columns wide, through lm
// and the right rows through rm. It applies to a prep fresh from
// PrepareJoin, before Project.
func (p *JoinPrep) Through(lm ColMap, lw int, rm ColMap) *JoinPrep {
	q := *p
	q.lCols, q.rCols, q.lw = lm.Data(p.lA), rm.Data(p.rA), lw
	q.lIdx, q.rIdx = lm.Of(p.lIdx), rm.Of(p.rIdx)
	q.pick = make([]int, 0, p.lA+p.rA)
	q.pick = append(q.pick, q.lCols...)
	for _, k := range q.rCols {
		q.pick = append(q.pick, lw+k)
	}
	return &q
}

// Project returns p emitting only the joined data columns sel, as the
// period schema schema: a column-only projection directly over the
// join, folded into the one row each surviving pair gets.
func (p *JoinPrep) Project(sel []int, schema tuple.Schema) *JoinPrep {
	q := *p
	q.pick = make([]int, len(sel))
	for j, c := range sel {
		q.pick[j] = p.pick[c]
	}
	q.out = schema
	return &q
}

// HasEquiKey reports whether the predicate contains at least one
// equality conjunct usable as a hash-join key.
func (p *JoinPrep) HasEquiKey() bool { return len(p.lIdx) > 0 }

// Schema returns the period schema of the join output.
func (p *JoinPrep) Schema() tuple.Schema { return p.out }

// JoinBuild is a drained, immutable hash-join build side. It is safe to
// probe from multiple goroutines concurrently: every Probe iterator
// carries its own cursor state and only reads the shared table. left
// records which input was built (the probe side is the other one).
//
// The table keys rows by tuple.HashKey over their key columns: index
// maps a hash to its bucket, and bucket b's rows, in input order, are
// rows[start[b]:start[b+1]]. Keys that share a hash share a bucket; a
// probe tells them apart with SameKey.
type JoinBuild struct {
	prep   *JoinPrep
	keyIdx []int // the build rows' key columns
	index  map[uint64]int32
	start  []int32
	rows   []tuple.Tuple
	left   bool
	err    error // terminal error of the build-side drain
}

// Err reports the terminal error of the build-side drain: a build over
// a failed input stream is incomplete, and probing it would silently
// drop matches.
func (b *JoinBuild) Err() error { return b.err }

// Rows returns the number of rows retained in the build table: the
// governor's memory-charge basis.
func (b *JoinBuild) Rows() int64 { return int64(len(b.rows)) }

// Build drains one input into a hash table on the equi-key columns and
// closes it: the right input by default, the LEFT one when left is set
// (the probe iterator then consumes the other input; output column
// order is unaffected). hint pre-sizes the table for roughly that many
// build rows (<= 0 = no hint): a good one removes the incremental grow
// allocations during the drain, a bad one costs at most the overshoot's
// memory. Neither parameter affects results. Build must only be called
// when HasEquiKey reports true.
func (p *JoinPrep) Build(in RowIter, left bool, hint int64) *JoinBuild {
	keyIdx := p.rIdx
	if left {
		keyIdx = p.lIdx
	}
	hint = max(hint, 0)
	index := make(map[uint64]int32, hint)
	rows := make([]tuple.Tuple, 0, hint)
	bucket := make([]int32, 0, hint) // each row's bucket, then its place
	var count []int32                // each bucket's rows
	batch := NewRowBatch(DefaultBatchSize)
	for in.NextBatch(batch) {
		for _, row := range batch.Rows {
			// SQL comparison semantics: a NULL in any join key compares
			// unknown, so such rows can never match.
			if hasNullAt(row, keyIdx) {
				continue
			}
			h := row.HashKey(keyIdx) & p.hashMask
			b, ok := index[h]
			if !ok {
				b = int32(len(count))
				index[h] = b
				count = append(count, 0)
			}
			count[b]++
			bucket = append(bucket, b)
			//lint:ignore rowretain hash-join build side holds rows read-only; engine producers never reuse yielded row backing (only the batch slice is reused, and the row is copied out of it here)
			rows = append(rows, row)
		}
	}
	err := in.Err()
	in.Close()
	// Lay the rows out bucket by bucket, each in input order: bucket[i]
	// turns into the place of the row at i, and the rows move there in
	// place, one permutation cycle at a time.
	start := make([]int32, len(count)+1)
	for b, k := range count {
		start[b+1] = start[b] + k
		count[b] = start[b]
	}
	for i, b := range bucket {
		bucket[i] = count[b]
		count[b]++
	}
	for i := range rows {
		for j := bucket[i]; j != int32(i); j = bucket[i] {
			rows[i], rows[j] = rows[j], rows[i]
			bucket[i], bucket[j] = bucket[j], j
		}
	}
	return &JoinBuild{prep: p, keyIdx: keyIdx, index: index, start: start, rows: rows, left: left, err: err}
}

// candidates returns the build rows whose key hashes as probe row
// prow's key columns probeIdx do.
func (b *JoinBuild) candidates(prow tuple.Tuple, probeIdx []int) []tuple.Tuple {
	i, ok := b.index[prow.HashKey(probeIdx)&b.prep.hashMask]
	if !ok {
		return nil
	}
	return b.rows[b.start[i]:b.start[i+1]]
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
		build:    b,
		probeIdx: probeIdx,
		pairs:    b.prep.composer(),
		swapped:  b.left,
	}
}

// NewJoinIter builds the streaming temporal join over two input streams.
// Equality conjuncts of pred become hash-join keys with the right input
// as build side; without any equi key the join degrades to the
// endpoint-sorted interval-overlap sweep (NewOverlapJoinIter) instead of
// a single-bucket hash table. NewJoinIter takes ownership of both
// inputs: consumed or failed children are closed here, so the caller
// only ever closes the returned iterator.
func NewJoinIter(l, r RowIter, pred algebra.Expr) (RowIter, error) {
	prep, err := PrepareJoin(dataSchema(l.Schema()), dataSchema(r.Schema()), pred)
	if err != nil {
		l.Close()
		r.Close()
		return nil, err
	}
	if !prep.HasEquiKey() {
		return NewOverlapJoinIter(l, r, prep)
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
// hint is the build side's SizeHint. The executor pre-sizes the build
// table with it.
func (db *DB) JoinStrategy(n JoinP, prep *JoinPrep) (hash, buildLeft bool, hint int64) {
	if !prep.HasEquiKey() {
		return false, false, 0
	}
	lEst, rEst := db.EstimateRows(n.L), db.EstimateRows(n.R)
	buildLeft = lEst >= 0 && rEst >= 0 && lEst < rEst
	build := n.R
	if buildLeft {
		build = n.L
	}
	return true, buildLeft, db.SizeHint(build)
}

// SizeHint is p's row estimate when it bounds p's rows — p reaches a
// stored table through Filter, Project and Window only — and 0
// otherwise: what a drain of p may reserve room for up front. The
// estimate of a join or an aggregation can overshoot its rows by orders
// of magnitude, and the room reserved is not charged to the memory
// budget.
func (db *DB) SizeHint(p Plan) int64 {
	if db.baseTable(p) == nil {
		return 0
	}
	return max(db.EstimateRows(p), 0)
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
	more := it.fill(out, out.Cap())
	it.pairs.flush(out)
	if !more {
		it.pairs.release()
	}
	return out.Len() > 0
}

// fill is the resumable probe loop: it stages surviving pairs in out
// until out holds limit of them or the probe side is exhausted, pulling
// probe rows (limit at a time) as buckets run out, and reports false in
// the second case. A bucket holds every build row whose key hashes
// alike; only those whose key columns are SameKey to the probe row's
// pair with it.
func (it *hashJoinIter) fill(out *RowBatch, limit int) bool {
	for {
	bucket:
		for it.bi < len(it.bucket) {
			if out.Len() == limit {
				return true
			}
			brow := it.bucket[it.bi]
			it.bi++
			for j, c := range it.probeIdx {
				if !tuple.SameKey(it.prow[c], brow[it.build.keyIdx[j]]) {
					continue bucket
				}
			}
			// Output rows are composed in left-then-right column order
			// whichever side was built.
			lrow, rrow := it.prow, brow
			if it.swapped {
				lrow, rrow = brow, it.prow
			}
			it.pairs.stage(out, lrow, rrow)
		}
		prow, ok := it.cur.next(limit)
		if !ok {
			return false
		}
		if hasNullAt(prow, it.probeIdx) {
			continue
		}
		//lint:ignore rowretain probe row is held read-only and replaced by the next probe row
		it.prow = prow
		it.bucket, it.bi = it.build.candidates(prow, it.probeIdx), 0
	}
}

func (it *hashJoinIter) Close() { it.probe.Close() }

// Err reports the build side's terminal error, then the probe side's.
func (it *hashJoinIter) Err() error { return FirstErr(it.build.err, it.probe.Err()) }
