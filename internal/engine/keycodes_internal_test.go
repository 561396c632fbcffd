package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// keyValue draws one key value of a small domain in which distinct
// spellings key alike: Int and integral Float, 0.0 and −0.0, NULLs,
// NaNs and strings by their bytes.
func keyValue(rng *rand.Rand) tuple.Value {
	switch rng.Intn(8) {
	case 0:
		return tuple.Null
	case 1:
		return tuple.Float(float64(rng.Intn(3)))
	case 2:
		return tuple.Float(math.Copysign(0, -1))
	case 3:
		return tuple.Float(0.5)
	case 4:
		return tuple.Float(math.NaN())
	case 5:
		return tuple.String_(string([]byte{'s', byte('0' + rng.Intn(2))}))
	default:
		return tuple.Int(int64(rng.Intn(3)))
	}
}

// checkKeyCodes checks codes, n against the definition: rows share a
// code exactly when their columns cols are SameKey, and codes number the
// keys in first-seen storage order, so n counts them.
func checkKeyCodes(t *testing.T, what string, rows []tuple.Tuple, cols []int, codes []int32, n int) {
	t.Helper()
	if len(codes) != len(rows) {
		t.Fatalf("%s: %d codes for %d rows", what, len(codes), len(rows))
	}
	next := int32(0)
	for i := range rows {
		if codes[i] == next {
			next++
		} else if codes[i] > next || codes[i] < 0 {
			t.Fatalf("%s: row %d has code %d, but only %d keys were seen before it", what, i, codes[i], next)
		}
		for j := range i {
			if same := sameKeyAt(rows[i], rows[j], cols); same != (codes[i] == codes[j]) {
				t.Fatalf("%s: rows %d %v and %d %v: SameKey %v, codes %d and %d", what, i, rows[i], j, rows[j], same, codes[i], codes[j])
			}
		}
	}
	if int(next) != n {
		t.Fatalf("%s: %d keys numbered, %d reported", what, next, n)
	}
}

// TestKeyCodesAreSameKeyClasses builds codes over rows of one and two key
// columns of every spelling class, and over columns read out of order,
// with the real hash and with every row on one hash, which makes the
// builder tell every key apart by SameKey alone.
func TestKeyCodesAreSameKeyClasses(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]tuple.Tuple, 1+rng.Intn(300))
		for i := range rows {
			rows[i] = tuple.Tuple{keyValue(rng), keyValue(rng), tuple.Int(rng.Int63n(5)), tuple.Int(0), tuple.Int(1)}
		}
		for _, cols := range [][]int{{0}, {1, 0}, {0, 1, 2}, {2}} {
			for _, mask := range []uint64{^uint64(0), 0, 0xff << 56} {
				codes, n := buildKeyCodes(rows, cols, mask)
				checkKeyCodes(t, "", rows, cols, codes, n)
			}
		}
	}
	if codes, n := buildKeyCodes(nil, []int{0}, ^uint64(0)); len(codes) != 0 || n != 0 {
		t.Fatalf("no rows: %d codes, %d keys", len(codes), n)
	}
}

// TestSortHashBits checks the radix sort against a stable sort by the
// top hashBits bits, on keys spread over every bit and on keys that
// share most of them, so that passes are skipped, with the low bits
// numbering the keys as a build's row indexes do.
func TestSortHashBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const shift = 64 - hashBits
	for _, n := range []int{1, 200, 5000} {
		for _, spread := range []func() uint64{rng.Uint64, func() uint64 { return uint64(rng.Intn(4)) << 62 }, func() uint64 { return uint64(rng.Intn(4)) << shift }} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = spread()>>shift<<shift | uint64(i)
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a>>shift, b>>shift) })
			if got := sortHashBits(keys, make([]uint64, n)); !slices.Equal(got, want) {
				t.Fatalf("%d keys: sortHashBits differs from a stable sort by the hash bits", n)
			}
		}
	}
}

// codedTable is a begin-sorted table of the given rows over (k, v).
func codedTable(rng *rand.Rand, n int) *Table {
	tbl := NewTable(tuple.NewSchema("k", "v"))
	for i := range n {
		b := int64(i / 3)
		tbl.Append(tuple.Tuple{keyValue(rng), tuple.Int(rng.Int63n(4))}, interval.New(b, b+1+rng.Int63n(9)), 1)
	}
	return tbl
}

// TestKeyCodesCache checks the table's cache: the same codes for the
// same columns, a set per column list, one copy through Clone, and none
// after each writer; SizeBytes counts 4 bytes per row per cached set.
func TestKeyCodesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := codedTable(rng, 200)
	base := tbl.SizeBytes()
	c1, n1, ok := tbl.KeyCodes([]int{0})
	if !ok {
		t.Fatal("no codes")
	}
	checkKeyCodes(t, "k", tbl.Rows, []int{0}, c1, n1)
	if c2, _, _ := tbl.KeyCodes([]int{0}); &c2[0] != &c1[0] {
		t.Fatal("a second call built the codes again")
	}
	c3, n3, _ := tbl.KeyCodes([]int{1, 0})
	checkKeyCodes(t, "v, k", tbl.Rows, []int{1, 0}, c3, n3)
	if got, want := tbl.SizeBytes(), base+2*4*int64(tbl.Len()); got != want {
		t.Fatalf("SizeBytes %d with two cached sets, want %d", got, want)
	}
	if c, _, _ := tbl.Clone().KeyCodes([]int{0}); &c[0] != &c1[0] {
		t.Fatal("a clone dropped its table's codes")
	}
	writes := []struct {
		name string
		fn   func(*Table)
	}{
		{"Append", func(t *Table) { t.Append(tuple.Tuple{tuple.Int(9), tuple.Int(9)}, interval.New(900, 901), 1) }},
		{"SetRows", func(t *Table) { t.SetRows(t.Rows[1:]) }},
		{"InvalidateMeta", func(t *Table) { t.InvalidateMeta() }},
		{"Sort", func(t *Table) { t.Sort() }},
		{"SortByEndpoints", func(t *Table) { t.SortByEndpoints() }},
	}
	for _, w := range writes {
		tbl.KeyCodes([]int{0})
		w.fn(tbl)
		if tbl.codes.Load() != nil {
			t.Fatalf("%s kept the cached codes", w.name)
		}
		if got, want := tbl.SizeBytes(), int64(tbl.Len())*ApproxRowBytes(4); got != want {
			t.Fatalf("after %s: SizeBytes %d, want %d", w.name, got, want)
		}
		codes, n, _ := tbl.KeyCodes([]int{0})
		checkKeyCodes(t, "after "+w.name, tbl.Rows, []int{0}, codes, n)
	}
}

// TestKeyCodesConcurrentBuild has two goroutines build one table's codes
// at once, over one column set and over two: each gets the codes of its
// set, and the cache ends holding each set once. Run under -race.
func TestKeyCodesConcurrentBuild(t *testing.T) {
	for _, sets := range [][][]int{{{0}, {0}}, {{0}, {1, 0}}} {
		tbl := codedTable(rand.New(rand.NewSource(5)), 500)
		var wg sync.WaitGroup
		got := make([][]int32, len(sets))
		for i, cols := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, _ = tbl.KeyCodes(cols)
			}()
		}
		wg.Wait()
		for i, cols := range sets {
			want, n := buildKeyCodes(tbl.Rows, cols, ^uint64(0))
			if !slices.Equal(got[i], want) {
				t.Fatalf("%v: a concurrent build returned other codes", cols)
			}
			checkKeyCodes(t, "concurrent", tbl.Rows, cols, got[i], n)
		}
		distinct := 1
		if !slices.Equal(sets[0], sets[1]) {
			distinct = 2
		}
		if c := tbl.codes.Load(); c == nil || len(*c) != distinct {
			t.Fatalf("%v: the cache holds %v sets, want %d", sets, c, distinct)
		}
	}
}
