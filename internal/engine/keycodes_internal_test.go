package engine

import (
	"cmp"
	"fmt"
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

// checkKeyParts checks a w-way routing map over codes, n codes: it names
// a fragment in [0, w) for every code, and no fragment holds more rows
// than N/W plus the rows of the largest code.
func checkKeyParts(t *testing.T, what string, codes []int32, n, w int, frag []uint8) {
	t.Helper()
	if len(frag) != n {
		t.Fatalf("%s: a map of %d codes for %d", what, len(frag), n)
	}
	rows, load := make([]int, n), make([]int, w)
	for _, c := range codes {
		if int(frag[c]) >= w {
			t.Fatalf("%s: code %d maps to fragment %d of %d", what, c, frag[c], w)
		}
		rows[c]++
		load[frag[c]]++
	}
	if limit := len(codes)/w + 1 + slices.Max(append(rows, 0)); slices.Max(load) > limit {
		t.Fatalf("%s: fragment rows %v, more than %d", what, load, limit)
	}
}

// TestKeyCodesCache checks the table's cache: the same codes for the
// same columns, a set per column list, one copy through Clone, and none
// after each writer; the same for the routing maps, one per fragment
// count, which go with their codes. SizeBytes counts 4 bytes per row per
// cached set and a byte per code per map.
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
	f2 := tbl.KeyParts([]int{0}, 2)
	checkKeyParts(t, "k, W=2", c1, n1, 2, f2)
	if f := tbl.KeyParts([]int{0}, 2); &f[0] != &f2[0] {
		t.Fatal("a second call built the routing map again")
	}
	// Every routed scan looks its map up once per query.
	if a := testing.AllocsPerRun(10, func() { tbl.KeyParts([]int{0}, 2) }); a != 0 {
		t.Fatalf("looking up a cached routing map made %.0f allocations", a)
	}
	f3 := tbl.KeyParts([]int{1, 0}, 3)
	checkKeyParts(t, "v, k, W=3", c3, n3, 3, f3)
	if got, want := tbl.SizeBytes(), base+2*4*int64(tbl.Len())+int64(n1+n3); got != want {
		t.Fatalf("SizeBytes %d with two cached sets and their maps, want %d", got, want)
	}
	clone := tbl.Clone()
	if c, _, _ := clone.KeyCodes([]int{0}); &c[0] != &c1[0] {
		t.Fatal("a clone dropped its table's codes")
	}
	if f := clone.KeyParts([]int{0}, 2); &f[0] != &f2[0] {
		t.Fatal("a clone dropped its table's routing map")
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
		old := tbl.KeyParts([]int{0}, 2)
		w.fn(tbl)
		if tbl.codes.Load() != nil {
			t.Fatalf("%s kept the cached codes", w.name)
		}
		if got, want := tbl.SizeBytes(), int64(tbl.Len())*ApproxRowBytes(4); got != want {
			t.Fatalf("after %s: SizeBytes %d, want %d", w.name, got, want)
		}
		codes, n, _ := tbl.KeyCodes([]int{0})
		checkKeyCodes(t, "after "+w.name, tbl.Rows, []int{0}, codes, n)
		frag := tbl.KeyParts([]int{0}, 2)
		if &frag[0] == &old[0] {
			t.Fatalf("%s kept the routing map", w.name)
		}
		checkKeyParts(t, "after "+w.name, codes, n, 2, frag)
	}
}

// TestKeyPartsRange builds routing maps over skewed codes at fragment
// counts up to the most a map can name, and refuses one beyond: the scan
// partition then hashes. SetParallelism has no cap, so the executor may
// ask; the builder is called directly, and no fragment is started.
func TestKeyPartsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := make([]int32, 5000)
	for i := range codes {
		// Code 0 takes about half the rows, codes 1–3 a tenth each, and
		// the rest spread over 600 codes, numbered in first-seen order.
		switch r := rng.Intn(10); {
		case r < 5:
			codes[i] = 0
		case r < 8:
			codes[i] = int32(r - 4)
		default:
			codes[i] = int32(4 + rng.Intn(600))
		}
	}
	renumbered, n := buildKeyCodes(codeRows(codes), []int{0}, ^uint64(0))
	for _, w := range []int{1, 2, 3, 4, 7, maxParts} {
		checkKeyParts(t, fmt.Sprintf("W=%d", w), renumbered, n, w, buildKeyParts(renumbered, n, w))
	}
	if frag := buildKeyParts(renumbered, n, maxParts); int(slices.Max(frag)) != maxParts-1 {
		t.Fatalf("a %d-way map over %d codes names fragments up to %d only", maxParts, n, slices.Max(frag))
	}
	for _, w := range []int{0, maxParts + 1, 1 << 20} {
		if frag := buildKeyParts(renumbered, n, w); frag != nil {
			t.Fatalf("W=%d: built a map of %d codes, want none", w, len(frag))
		}
	}
	tbl := codedTable(rng, 100)
	if frag := tbl.KeyParts([]int{0}, maxParts+1); frag != nil {
		t.Fatalf("KeyParts at W=%d returned a map", maxParts+1)
	}
}

// codeRows returns one-column rows holding codes, for buildKeyCodes.
func codeRows(codes []int32) []tuple.Tuple {
	rows := make([]tuple.Tuple, len(codes))
	for i, c := range codes {
		rows[i] = tuple.Tuple{tuple.Int(int64(c))}
	}
	return rows
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

// TestKeyPartsConcurrentBuild has two goroutines build one table's
// routing map at once, for one fragment count and for two: each gets the
// map its count builds, and the code set's cache ends holding each map
// once. Run under -race.
func TestKeyPartsConcurrentBuild(t *testing.T) {
	for _, ws := range [][]int{{2, 2}, {2, 3}} {
		tbl := codedTable(rand.New(rand.NewSource(6)), 500)
		var wg sync.WaitGroup
		got := make([][]uint8, len(ws))
		for i, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = tbl.KeyParts([]int{0}, w)
			}()
		}
		wg.Wait()
		codes, n, _ := tbl.KeyCodes([]int{0})
		for i, w := range ws {
			if want := buildKeyParts(codes, n, w); !slices.Equal(got[i], want) {
				t.Fatalf("W=%d: a concurrent build returned another map", w)
			}
			checkKeyParts(t, "concurrent", codes, n, w, got[i])
		}
		distinct := 1
		if ws[0] != ws[1] {
			distinct = 2
		}
		kc := (*tbl.codes.Load())[0]
		if maps := kc.parts.Load(); maps == nil || len(*maps) != distinct {
			t.Fatalf("%v: the cache holds %v maps, want %d", ws, maps, distinct)
		}
	}
}
