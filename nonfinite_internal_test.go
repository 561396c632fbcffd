package snapk

import (
	"errors"
	"math"
	"testing"
)

// NaN and ±Inf cannot enter a table: Insert and Update refuse them with
// a nonFiniteError and leave the table as it was.
func TestNonFiniteFloatsAreRefused(t *testing.T) {
	db := New(0, 10)
	tb, err := db.CreateTable("t", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(0, 5, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	var nf nonFiniteError
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tb.Insert(0, 5, 1, f); !errors.As(err, &nf) {
			t.Errorf("Insert(%v): got %v, want a nonFiniteError", f, err)
		}
		if n, err := tb.Update(0, 10, "v", f, ""); !errors.As(err, &nf) || n != 0 {
			t.Errorf("Update(%v): got %d rows, %v; want a nonFiniteError", f, n, err)
		}
	}
	res, err := db.Query("SELECT k, v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[1] != 2.5 || res.Rows[0].Begin != 0 || res.Rows[0].End != 5 {
		t.Fatalf("the table changed: %v", res)
	}
	// The largest finite floats are stored, and arithmetic that
	// overflows them is NULL, not ±Inf.
	if err := tb.Insert(5, 10, 2, math.MaxFloat64); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT k, v * 2 AS w, v - v * 2 AS x FROM t WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[1] != nil || res.Rows[0].Values[2] != nil {
		t.Fatalf("overflowing arithmetic: got %v, want NULLs", res)
	}
}
