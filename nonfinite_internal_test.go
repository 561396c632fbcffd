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

// An aggregate of a float near the top of the float range is that float,
// not ±Inf: the 1e-6 quantization of aggregate results leaves alone a
// value whose scaled form overflows. (Overlapping rows whose running sum
// overflows still read +Inf: that needs the exact sum of ROADMAP item
// 11.)
func TestHugeFloatAggregatesStayFinite(t *testing.T) {
	for _, f := range []float64{1e308, -1e308} {
		db := New(0, 10)
		tb, err := db.CreateTable("t", "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(2, 6, 1, f); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query("SELECT sum(v) AS s, avg(v) AS a, min(v) AS lo, max(v) AS hi FROM t")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range res.Rows {
			if row.Begin != 2 {
				continue
			}
			found = true
			for i, v := range row.Values {
				if v != f {
					t.Errorf("%g: aggregate %d is %v over [%d, %d), want %g", f, i, v, row.Begin, row.End, f)
				}
			}
		}
		if !found {
			t.Fatalf("%g: no result row over the inserted row's period: %v", f, res)
		}
	}
}
