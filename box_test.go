// Result values are boxed from slabs the cursor or the result owns
// (box.go), not one heap object each. These tests pin that a boxed
// value is an ordinary Go value on every surface that returns one, that
// it outlives everything that could reuse its slot, and what the slabs
// buy: Values allocations that do not grow with the rows.
package snapk_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	snapk "snapk"
)

const boxesSQL = "SELECT i, f, s, b, n FROM t"

// boxedRow is row k of boxesDB's table t: an int outside the small-int
// range, a float (0 at k = 0), a string (empty every seventh row), a
// bool and a NULL.
func boxedRow(k int) []any {
	s := fmt.Sprintf("value %d", k)
	if k%7 == 0 {
		s = ""
	}
	return []any{int64(1000 + k), float64(k) / 4, s, k%2 == 0, nil}
}

// boxesDB holds the given number of boxedRow's rows, row k valid during
// [k%50, k%50+5); row 0 twice, so the Seq result holds a run.
func boxesDB(t testing.TB, rows int) *snapk.DB {
	t.Helper()
	db := snapk.New(0, 100)
	tb, err := db.CreateTable("t", "i", "f", "s", "b", "n")
	if err != nil {
		t.Fatal(err)
	}
	for k := range rows {
		b := int64(k % 50)
		for range 1 + btoi(k == 0) {
			if err := tb.Insert(b, b+5, boxedRow(k)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkBoxed checks that the values of one result row are the ordinary
// Go values boxedRow made, under every operation that reads an
// interface: its dynamic type, ==, a map key, reflect, fmt and
// encoding/json.
func checkBoxed(t *testing.T, what string, got []any) {
	t.Helper()
	if err := boxedErr(got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// boxedErr is checkBoxed's check, for a goroutine that must not stop.
func boxedErr(got []any) error {
	if len(got) != 5 {
		return fmt.Errorf("%d values, want 5", len(got))
	}
	i, ok := got[0].(int64)
	if !ok || i < 1000 {
		return fmt.Errorf("i = %#v, want an int64 from 1000", got[0])
	}
	want := boxedRow(int(i - 1000))
	for c, v := range got {
		w := want[c]
		if reflect.TypeOf(v) != reflect.TypeOf(w) {
			return fmt.Errorf("column %d has type %T, want %T", c, v, w)
		}
		if v != w {
			return fmt.Errorf("column %d = %#v, want %#v", c, v, w)
		}
		if m := map[any]int{w: 1}; m[v] != 1 {
			return fmt.Errorf("column %d, %#v, misses the map key %#v", c, v, w)
		}
		if !reflect.DeepEqual(v, w) || v != nil && reflect.ValueOf(v).Interface() != w {
			return fmt.Errorf("column %d = %#v differs from %#v under reflect", c, v, w)
		}
		if a, b := fmt.Sprintf("%v %#v", v, v), fmt.Sprintf("%v %#v", w, w); a != b {
			return fmt.Errorf("column %d prints %q, want %q", c, a, b)
		}
		a, errA := json.Marshal(v)
		b, errB := json.Marshal(w)
		if errA != nil || errB != nil || string(a) != string(b) {
			return fmt.Errorf("column %d marshals to %s (%v), want %s (%v)", c, a, errA, b, errB)
		}
	}
	return nil
}

// churn collects twice and reallocates freed memory with junk, so a box
// whose slot had been freed or reused would read something else.
func churn() {
	for range 2 {
		runtime.GC()
		junk := make([][]uint64, 64)
		for i := range junk {
			junk[i] = make([]uint64, 1024)
			for j := range junk[i] {
				junk[i][j] = 0xdeadbeef
			}
		}
		runtime.KeepAlive(junk)
	}
}

// TestValuesBoxesAreOrdinaryValues drives every surface that boxes:
// Values and Scan into *any on a cursor (whose checker goroutine reads
// each row while the cursor moves on, so -race sees any later write to
// a slot), Query, QueryAt, QuerySet and a native baseline. Every value
// is checked when it is returned and again after the cursor has moved
// on and closed, after other returned slices were overwritten, and
// after collections that reuse freed memory.
func TestValuesBoxesAreOrdinaryValues(t *testing.T) {
	const n = 3000 // more rows than a batch, more slots than a slab
	db := boxesDB(t, n)

	// kept holds every returned slice; edited those of them that the
	// surface hands out as the caller's own (QueryAt and QuerySet share
	// one slice among a tuple's copies and segments), every other one of
	// which is overwritten below.
	var kept, edited [][]any
	rows, err := db.QueryRows(context.Background(), boxesSQL)
	if err != nil {
		t.Fatal(err)
	}
	checked := make(chan []any, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for vals := range checked {
			if err := boxedErr(vals); err != nil {
				t.Errorf("Values, read concurrently: %v", err)
			}
		}
	}()
	count := 0
	for rows.Next() {
		vals := rows.Values()
		scanned := make([]any, 5)
		if err := rows.Scan(&scanned[0], &scanned[1], &scanned[2], &scanned[3], &scanned[4]); err != nil {
			t.Fatal(err)
		}
		checked <- vals
		kept = append(kept, scanned)
		edited = append(edited, vals)
		count++
	}
	close(checked)
	<-done
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if count != n+1 {
		t.Fatalf("cursor: %d rows, want %d", count, n+1)
	}

	res, err := db.Query(boxesSQL)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := db.QueryWith(boxesSQL, snapk.NativeAlignment)
	if err != nil {
		t.Fatal(err)
	}
	set, err := db.QuerySet(boxesSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*snapk.Result{res, nat, set} {
		if r.Len() < n {
			t.Fatalf("a result holds %d rows, want at least %d", r.Len(), n)
		}
		for _, row := range r.Rows {
			if r == set {
				kept = append(kept, row.Values)
			} else {
				edited = append(edited, row.Values)
			}
		}
	}
	at, err := db.QueryAt(boxesSQL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) == 0 {
		t.Fatal("QueryAt: no rows at 2")
	}
	kept = append(kept, at...)

	churn()
	for _, vals := range append(kept, edited...) {
		checkBoxed(t, "kept", vals)
	}
	// Overwrite every other edited slice: the values of the others, and
	// of the kept ones, must not move. A Result's slices are cut from one
	// slab, so a write past a slice's end would show in its neighbour.
	for i, vals := range edited {
		if i%2 == 1 {
			for c := range vals {
				vals[c] = "overwritten"
			}
		}
	}
	churn()
	for i, vals := range edited {
		if i%2 == 0 {
			checkBoxed(t, "kept after other slices were overwritten", vals)
		}
	}
	for _, vals := range kept {
		checkBoxed(t, "kept after other slices were overwritten", vals)
	}
}

// TestRowsValuesAllocsDoNotScale drains a 10,000-row result of ints,
// floats and strings through Values: boxing from slabs costs a few
// allocations per batch, not one per value.
func TestRowsValuesAllocsDoNotScale(t *testing.T) {
	const n = 10000
	db := snapk.New(0, 100)
	tb, err := db.CreateTable("t", "i", "f", "s")
	if err != nil {
		t.Fatal(err)
	}
	for k := range n {
		if err := tb.Insert(int64(k%50), int64(k%50+5), int64(1000+k), float64(k)+0.5, fmt.Sprintf("s%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(values bool) float64 {
		return testing.AllocsPerRun(3, func() {
			rows, err := db.QueryRows(context.Background(), "SELECT i, f, s FROM t")
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for rows.Next() {
				if values {
					rows.Values()
				}
				count++
			}
			if err := rows.Err(); err != nil || count != n {
				t.Fatalf("%d rows, err %v; want %d", count, err, n)
			}
			rows.Close()
		})
	}
	bare, boxed := drain(false), drain(true)
	perRow := (boxed - bare) / n
	t.Logf("%.0f allocations without Values, %.0f with: %.4f per row", bare, boxed, perRow)
	if perRow > 0.02 {
		t.Fatalf("Values made %.4f allocations per row of three values, want at most 0.02", perRow)
	}
}
