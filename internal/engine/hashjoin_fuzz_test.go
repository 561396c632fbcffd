package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// joinKeyPalette is what the join fuzzer draws key values from: NULL,
// Ints and the Floats that key as them, ±0.0, NaN, a fraction and
// strings spelled like numbers.
var joinKeyPalette = []tuple.Value{
	tuple.Null, tuple.Int(0), tuple.Int(1), tuple.Float(1), tuple.Float(0), tuple.Float(math.Copysign(0, -1)),
	tuple.Float(math.NaN()), tuple.Int(2), tuple.Float(2.5), tuple.String_("1"), tuple.String_(""), tuple.Int(-1),
}

// joinFuzzDomain holds every interval decodeJoinFuzz makes.
var joinFuzzDomain = interval.NewDomain(0, 32)

// decodeJoinFuzz decodes fuzz data into the two inputs of a join, each
// with two key columns and a row number, and a predicate over them: the
// first key alone, both keys, or the first key and a residual over the
// row numbers. Each 5-byte chunk is one row: side, the two keys, begin
// and span.
func decodeJoinFuzz(data []byte) (l, r *Table, pred algebra.Expr) {
	if len(data) > 400 {
		data = data[:400]
	}
	l = NewTable(tuple.NewSchema("k", "j", "a"))
	r = NewTable(tuple.NewSchema("k2", "j2", "b"))
	col := algebra.Col
	pred = algebra.Eq(col("k"), col("k2"))
	if len(data) > 0 {
		switch data[0] % 3 {
		case 1:
			pred = algebra.And(pred, algebra.Eq(col("j2"), col("j")))
		case 2:
			pred = algebra.And(pred, algebra.Lt(col("a"), col("b")))
		}
		data = data[1:]
	}
	for i := 0; i+4 < len(data); i += 5 {
		tbl := l
		if data[i]%2 == 1 {
			tbl = r
		}
		k := joinKeyPalette[int(data[i+1])%len(joinKeyPalette)]
		j := joinKeyPalette[int(data[i+2])%len(joinKeyPalette)]
		begin := int64(data[i+3]) % (joinFuzzDomain.Max - 1)
		end := min(begin+1+int64(data[i+4]%8), joinFuzzDomain.Max)
		tbl.Append(tuple.Tuple{k, j, tuple.Int(int64(i))}, interval.New(begin, end), 1)
	}
	return l, r, pred
}

// exactRowKey encodes a row so that rows of equal keys are the same
// values of the same kinds, floats bit for bit: 1 and 1.0, or 0.0 and
// −0.0, which join as one key, stay apart here.
func exactRowKey(row tuple.Tuple) string {
	var b []byte
	for _, v := range row {
		b = append(b, byte(v.Kind()))
		if v.Kind() == tuple.KindFloat {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
		} else {
			b = tuple.Tuple{v}.AppendKey(b, nil)
		}
	}
	return string(b)
}

// exactCounts is a table's rows as a multiset under exactRowKey.
func exactCounts(t *Table) map[string]int {
	m := make(map[string]int)
	for _, row := range t.Rows {
		m[exactRowKey(row)]++
	}
	return m
}

// keyEquality returns p's predicate for the overlap sweep: its equi
// keys as SameKey over non-NULL values, the hash join's equality,
// followed by its residual.
func keyEquality(p *JoinPrep) *JoinPrep {
	q := *p
	lIdx, rIdx, res := p.lIdx, p.rIdx, p.res
	q.lIdx, q.rIdx = nil, nil
	q.res = func(t tuple.Tuple) tuple.Value {
		for j, c := range lIdx {
			a, b := t[c], t[p.lA+rIdx[j]]
			if a.IsNull() || b.IsNull() || !tuple.SameKey(a, b) {
				return tuple.Bool(false)
			}
		}
		if res != nil {
			return res(t)
		}
		return tuple.Bool(true)
	}
	return &q
}

// hasNaNKey reports whether a row of tbl holds NaN in one of its two
// key columns.
func hasNaNKey(tbl *Table) bool {
	for _, row := range tbl.Rows {
		for _, v := range row[:2] {
			if v.Kind() == tuple.KindFloat && math.IsNaN(v.AsFloat()) {
				return true
			}
		}
	}
	return false
}

// FuzzHashJoin checks the hash join, built on either side and with its
// keys hashed as they are or all on one hash, against the overlap sweep
// with the join's key equality as its residual — the same pairs from an
// algorithm that hashes nothing — and, where no key is NaN, against the
// abstract model. The model compares with tuple.Compare, under which
// NaN equals every number, while the join's keys, like a GROUP BY's,
// take NaN as equal to NaN only.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 3, 7, 1, 3, 1, 1, 7})                // Int 1 against Float 1.0
	f.Add([]byte{1, 0, 4, 4, 0, 7, 1, 5, 5, 2, 7, 0, 1, 1, 5, 7}) // 0.0 against −0.0
	f.Add([]byte{0, 0, 6, 0, 0, 7, 1, 6, 1, 3, 7, 1, 2, 0, 0, 7}) // NaN against NaN and Int 1
	f.Add([]byte{1, 0, 0, 0, 0, 7, 1, 0, 0, 2, 7, 0, 2, 0, 1, 7}) // NULL keys, which match nothing
	f.Add([]byte{2, 0, 9, 1, 0, 7, 1, 9, 9, 5, 7, 0, 0, 0, 4, 7, 1, 0, 7, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, pred := decodeJoinFuzz(data)
		prep, err := PrepareJoin(l.DataSchema(), r.DataSchema(), pred)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewOverlapJoinIter(NewTableIter(l), NewTableIter(r), keyEquality(prep))
		if err != nil {
			t.Fatal(err)
		}
		want := Materialize(ref)
		oracle := !hasNaNKey(l) && !hasNaNKey(r)
		if oracle {
			q := algebra.Join{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}, Pred: pred}
			if err := snapshotOracle(joinFuzzDomain, q, want, map[string]*Table{"l": l, "r": r}); err != nil {
				t.Fatalf("overlap sweep on %v: %v", pred, err)
			}
		}
		for _, mask := range []uint64{^uint64(0), 0} {
			for _, left := range []bool{false, true} {
				p := *prep
				p.hashMask = mask
				build, probe := r, l
				if left {
					build, probe = l, r
				}
				it := p.Build(NewTableIter(build), left, 0).Probe(NewTableIter(probe))
				got, err := MaterializeErr(it)
				it.Close()
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("hash join on %v, mask %#x, build left %v", pred, mask, left)
				if !sameCounts(exactCounts(got), exactCounts(want)) {
					t.Fatalf("%s diverges from the overlap sweep\nleft:\n%s\nright:\n%s\ngot:\n%s\nwant:\n%s", what, l, r, got, want)
				}
			}
		}
	})
}

// sameCounts reports whether two multisets are equal.
func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
