package harness

import (
	"fmt"
	"io"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
	"snapk/internal/semiring"
	"snapk/internal/telement"
	"snapk/internal/tuple"
	"snapk/internal/workload"
)

// RunningExample builds the Figure 1 works/assign database.
func RunningExample() *engine.DB {
	dom := interval.NewDomain(0, 24)
	db := engine.NewDB(dom)
	str := tuple.String_
	works := db.CreateTable("works", tuple.NewSchema("name", "skill"))
	works.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(3, 10), 1)
	works.Append(tuple.Tuple{str("Joe"), str("NS")}, interval.New(8, 16), 1)
	works.Append(tuple.Tuple{str("Sam"), str("SP")}, interval.New(8, 16), 1)
	works.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(18, 20), 1)
	assign := db.CreateTable("assign", tuple.NewSchema("mach", "skill"))
	assign.Append(tuple.Tuple{str("M1"), str("SP")}, interval.New(3, 12), 1)
	assign.Append(tuple.Tuple{str("M2"), str("SP")}, interval.New(6, 14), 1)
	assign.Append(tuple.Tuple{str("M3"), str("NS")}, interval.New(3, 16), 1)
	return db
}

// QOnduty is the Figure 1 aggregation query.
func QOnduty() algebra.Query {
	return algebra.Agg{
		Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In: algebra.Select{
			Pred: algebra.Eq(algebra.Col("skill"), algebra.StrC("SP")),
			In:   algebra.Rel{Name: "works"},
		},
	}
}

// QSkillreq is the Figure 1 bag-difference query.
func QSkillreq() algebra.Query {
	return algebra.Diff{
		L: algebra.ProjectCols(algebra.Rel{Name: "assign"}, "skill"),
		R: algebra.ProjectCols(algebra.Rel{Name: "works"}, "skill"),
	}
}

// Fig1 regenerates Figure 1(b) and 1(c): the running-example results.
func Fig1(w io.Writer) error {
	db := RunningExample()
	for _, exp := range []struct {
		title string
		q     algebra.Query
	}{
		{"Figure 1(b) — Qonduty (snapshot aggregation)", QOnduty()},
		{"Figure 1(c) — Qskillreq (snapshot bag difference)", QSkillreq()},
	} {
		res, err := Run(db, exp.q, Seq)
		if err != nil {
			return err
		}
		res.Sort()
		fmt.Fprintf(w, "%s\n%s\n", exp.title, res)
	}
	return nil
}

// Table1 regenerates Table 1 as *measured* properties: for each approach
// it probes multiset support, AG-freedom, BD-freedom and uniqueness of
// the result encoding, using the running example and targeted
// micro-inputs.
func Table1(w io.Writer) error {
	tw := NewTable("Approach", "Multisets", "AG bug free", "BD bug free", "Unique encoding")
	for _, ap := range []Approach{Seq, SeqNaive, NatIP, NatAlign} {
		multi, err := probeMultisets(ap)
		if err != nil {
			return err
		}
		agFree, err := probeAGFree(ap)
		if err != nil {
			return err
		}
		bdFree, err := probeBDFree(ap)
		if err != nil {
			return err
		}
		unique, err := probeUnique(ap)
		if err != nil {
			return err
		}
		tw.AddRow(ap.String(), mark(multi), mark(agFree), mark(bdFree), mark(unique))
	}
	_, err := tw.WriteTo(w)
	return err
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// probeMultisets: a projection must preserve duplicates.
func probeMultisets(ap Approach) (bool, error) {
	dom := interval.NewDomain(0, 10)
	db := engine.NewDB(dom)
	t := db.CreateTable("t", tuple.NewSchema("x", "y"))
	t.Append(tuple.Tuple{tuple.Int(1), tuple.Int(1)}, interval.New(0, 5), 1)
	t.Append(tuple.Tuple{tuple.Int(1), tuple.Int(2)}, interval.New(0, 5), 1)
	res, err := Run(db, algebra.ProjectCols(algebra.Rel{Name: "t"}, "x"), ap)
	if err != nil {
		return false, err
	}
	alg := telement.NewMAlgebra[int64](semiring.N, dom)
	ann := res.ToPeriodRelation(alg).Annotation(tuple.Tuple{tuple.Int(1)})
	return alg.Timeslice(ann, 2) == 2, nil
}

// probeAGFree: Qonduty must report rows over gaps.
func probeAGFree(ap Approach) (bool, error) {
	db := RunningExample()
	res, err := Run(db, QOnduty(), ap)
	if err != nil {
		return false, err
	}
	for _, row := range res.Rows {
		if row[0].Kind() == tuple.KindInt && row[0].AsInt() == 0 {
			return true, nil
		}
	}
	return false, nil
}

// probeBDFree: EXCEPT ALL with multiplicities 2 − 1 must leave 1.
func probeBDFree(ap Approach) (bool, error) {
	dom := interval.NewDomain(0, 10)
	db := engine.NewDB(dom)
	l := db.CreateTable("l", tuple.NewSchema("x"))
	l.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 5), 2)
	r := db.CreateTable("r", tuple.NewSchema("x"))
	r.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 5), 1)
	res, err := Run(db, algebra.Diff{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}, ap)
	if err != nil {
		return false, err
	}
	return res.Len() > 0, nil
}

// probeUnique: two snapshot-equivalent inputs must produce identical
// result row sets.
func probeUnique(ap Approach) (bool, error) {
	dom := interval.NewDomain(0, 10)
	mk := func(split bool) *engine.DB {
		db := engine.NewDB(dom)
		t := db.CreateTable("t", tuple.NewSchema("x"))
		if split {
			t.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 4), 1)
			t.Append(tuple.Tuple{tuple.Int(1)}, interval.New(4, 8), 1)
		} else {
			t.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 8), 1)
		}
		return db
	}
	q := algebra.Select{Pred: algebra.BoolC(true), In: algebra.Rel{Name: "t"}}
	a, err := Run(mk(false), q, ap)
	if err != nil {
		return false, err
	}
	b, err := Run(mk(true), q, ap)
	if err != nil {
		return false, err
	}
	if a.Len() != b.Len() {
		return false, nil
	}
	a, b = a.Clone(), b.Clone()
	a.Sort()
	b.Sort()
	for i := range a.Rows {
		if a.Rows[i].Key() != b.Rows[i].Key() {
			return false, nil
		}
	}
	return true, nil
}

// Fig5 regenerates Figure 5: multiset coalescing runtime for varying
// input size. Runtimes should grow linearly in the input size (§10.2).
func Fig5(w io.Writer, sc Scale, rep *Report) error {
	tw := NewTable("rows", "native (s)", "native ns/row")
	for _, n := range sc.Fig5Sizes {
		db := dataset.CoalesceInput(n, 3)
		tbl, err := db.Table("sal")
		if err != nil {
			return err
		}
		d, err := Median(sc.Runs, func() error {
			engine.Coalesce(tbl)
			return nil
		})
		if err != nil {
			return err
		}
		tw.AddRow(fmt.Sprintf("%d", n), FormatDuration(d), fmt.Sprintf("%d", d.Nanoseconds()/int64(n)))
		rep.Add("fig5", fmt.Sprintf("coalesce-native/rows=%d", n), d, nil)
	}
	_, err := tw.WriteTo(w)
	return err
}

// Table2 regenerates Table 2: the number of result rows of every
// workload query (for the scaled stand-in datasets; golden values for the
// quick scale are recorded in EXPERIMENTS.md).
func Table2(w io.Writer, sc Scale) error {
	edb := dataset.Employees(sc.Employees)
	tw := NewTable("query", "rows")
	for _, wq := range workload.Employees() {
		res, err := RunWorkload(edb, wq, Seq)
		if err != nil {
			return fmt.Errorf("%s: %w", wq.ID, err)
		}
		tw.AddRow(wq.ID, fmt.Sprintf("%d", res.Len()))
	}
	fmt.Fprintf(w, "Employee dataset %s\n", sc.Employees)
	if _, err := tw.WriteTo(w); err != nil {
		return err
	}
	for _, cfg := range []dataset.TPCBiHConfig{sc.TPCSmall, sc.TPCLarge} {
		tdb := dataset.TPCBiH(cfg)
		tw := NewTable("query", "rows")
		for _, wq := range workload.TPCH() {
			res, err := RunWorkload(tdb, wq, Seq)
			if err != nil {
				return fmt.Errorf("%s: %w", wq.ID, err)
			}
			tw.AddRow(wq.ID, fmt.Sprintf("%d", res.Len()))
		}
		fmt.Fprintf(w, "\n%s\n", cfg)
		if _, err := tw.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// Table3Employees regenerates the Employee half of Table 3: runtimes per
// query and approach plus the Bug column.
func Table3Employees(w io.Writer, sc Scale, rep *Report) error {
	db := dataset.Employees(sc.Employees)
	fmt.Fprintf(w, "Employee dataset %s — runtimes (s)\n", sc.Employees)
	tw := NewTable("query", "Seq", "Nat-ip", "Nat-align", "Bug")
	for _, wq := range workload.Employees() {
		q, err := wq.Translate(db)
		if err != nil {
			return err
		}
		cells := []string{wq.ID}
		for _, ap := range []Approach{Seq, NatIP, NatAlign} {
			d, err := Median(sc.Runs, func() error {
				_, err := Run(db, q, ap)
				return err
			})
			if err != nil {
				return err
			}
			cells = append(cells, FormatDuration(d))
			rep.Add("table3emp", fmt.Sprintf("%s/%s", wq.ID, ap), d, nil)
		}
		cells = append(cells, wq.Bug)
		tw.AddRow(cells...)
	}
	_, err := tw.WriteTo(w)
	return err
}

// Table3TPC regenerates the TPC-BiH half of Table 3 at two scales.
func Table3TPC(w io.Writer, sc Scale, rep *Report) error {
	for _, cfg := range []dataset.TPCBiHConfig{sc.TPCSmall, sc.TPCLarge} {
		db := dataset.TPCBiH(cfg)
		fmt.Fprintf(w, "%s — runtimes (s)\n", cfg)
		tw := NewTable("query", "Seq", "Nat-align", "Bug")
		for _, wq := range workload.TPCH() {
			q, err := wq.Translate(db)
			if err != nil {
				return err
			}
			cells := []string{wq.ID}
			for _, ap := range []Approach{Seq, NatAlign} {
				d, err := Median(sc.Runs, func() error {
					_, err := Run(db, q, ap)
					return err
				})
				if err != nil {
					return err
				}
				cells = append(cells, FormatDuration(d))
				rep.Add("table3tpc", fmt.Sprintf("%s/%s/%s", cfg, wq.ID, ap), d, nil)
			}
			cells = append(cells, wq.Bug)
			tw.AddRow(cells...)
		}
		if _, err := tw.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Ablations regenerates the §9 optimization studies: coalesce placement
// (single final vs per-operator), pre-aggregation vs materialized split,
// and the native single-sort coalesce.
func Ablations(w io.Writer, sc Scale, rep *Report) error {
	db := dataset.Employees(sc.Employees)

	fmt.Fprintln(w, "Ablation E7 — coalesce placement (§9, Lemma 6.1)")
	tw := NewTable("query", "optimized (s)", "naive (s)", "#coalesce opt", "#coalesce naive")
	for _, id := range []string{"join-1", "agg-1", "diff-2"} {
		wq, _ := workload.ByID(workload.Employees(), id)
		q, err := wq.Translate(db)
		if err != nil {
			return err
		}
		pOpt, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			return err
		}
		pNaive, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeNaive})
		if err != nil {
			return err
		}
		dOpt, err := Median(sc.Runs, func() error { _, err := Run(db, q, Seq); return err })
		if err != nil {
			return err
		}
		dNaive, err := Median(sc.Runs, func() error { _, err := Run(db, q, SeqNaive); return err })
		if err != nil {
			return err
		}
		tw.AddRow(id, FormatDuration(dOpt), FormatDuration(dNaive),
			fmt.Sprintf("%d", engine.CountCoalesce(pOpt)), fmt.Sprintf("%d", engine.CountCoalesce(pNaive)))
		rep.Add("ablation", "E7/"+id+"/final-coalesce", dOpt, nil)
		rep.Add("ablation", "E7/"+id+"/every-op-coalesce", dNaive, nil)
	}
	if _, err := tw.WriteTo(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nAblation E8 — pre-aggregation vs materialized split (§9)")
	tw = NewTable("query", "pre-agg (s)", "naive split (s)")
	for _, id := range []string{"agg-1", "agg-2"} {
		wq, _ := workload.ByID(workload.Employees(), id)
		q, err := wq.Translate(db)
		if err != nil {
			return err
		}
		var cells = []string{id}
		for _, preAgg := range []bool{true, false} {
			mode := rewrite.ModeOptimized
			if !preAgg {
				// Naive split but still a single final coalesce, isolating
				// the pre-aggregation effect from coalesce placement.
				mode = rewrite.ModeNaive
			}
			d, err := Median(sc.Runs, func() error {
				_, err := rewrite.Run(db, q, rewrite.Options{Mode: mode})
				return err
			})
			if err != nil {
				return err
			}
			cells = append(cells, FormatDuration(d))
			name := "E8/" + id + "/preagg"
			if !preAgg {
				name = "E8/" + id + "/naive-split"
			}
			rep.Add("ablation", name, d, nil)
		}
		tw.AddRow(cells...)
	}
	if _, err := tw.WriteTo(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nAblation E9 — native single-sort coalescing (§10.2)")
	tw = NewTable("rows", "native 1-sort (s)")
	for _, n := range sc.Fig5Sizes {
		if n > 200000 {
			continue
		}
		cdb := dataset.CoalesceInput(n, 3)
		tbl, err := cdb.Table("sal")
		if err != nil {
			return err
		}
		dN, err := Median(sc.Runs, func() error { engine.Coalesce(tbl); return nil })
		if err != nil {
			return err
		}
		tw.AddRow(fmt.Sprintf("%d", n), FormatDuration(dN))
		rep.Add("ablation", fmt.Sprintf("E9/rows=%d/native", n), dN, nil)
	}
	_, err := tw.WriteTo(w)
	return err
}
