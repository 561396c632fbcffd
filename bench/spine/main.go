// Command spine is snapk's benchmark: it times queries from SQL text to
// the last row through the public API, attributes that time to the
// layers beneath it, and checks every result. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spine:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name         = flag.String("workload", "", "run one workload (default: all)")
		seed         = flag.Int64("seed", 1, "seed the workloads' inputs are generated from")
		seconds      = flag.Int("seconds", 20, "length of a run's measured phase")
		trace        = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced; both")
		scale        = flag.String("scale", "full", "full, or tiny for tests and diagnosis (not comparable)")
		dir          = flag.String("dir", "bench", "the benchmark's directory: golden.json, baselines/ and out/")
		doCompare    = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare the two")
		updateGolden = flag.Bool("update-golden", false, "record the result digests in golden.json, if the theorem checks pass")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile (diagnosis only)")
		memprofile   = flag.String("memprofile", "", "write a heap profile (diagnosis only)")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			return err
		}
		new, err := readReport(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, old, new) {
			return fmt.Errorf("an end-to-end metric got worse by more than its bound")
		}
		return nil
	}

	sz, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []*workload{w}
	}
	traces := []string{"0", "1"}
	switch {
	case *selfcheck:
		traces = []string{"0"}
	case *trace == "0" || *trace == "1":
		traces = []string{*trace}
	case *trace != "both":
		return fmt.Errorf("-trace takes 0, 1 or both")
	}
	out := filepath.Join(*dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	runFile := func(w *workload, trace string) string {
		return filepath.Join(out, "run-"+w.name+"-"+trace+".json")
	}

	if len(selected) == 1 && len(traces) == 1 && !*selfcheck {
		// A single run, in this process.
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		cfg := runConfig{w: selected[0], sz: sz, seed: *seed, seconds: *seconds, updateGolden: *updateGolden,
			golden: filepath.Join(*dir, "golden.json"), out: out}
		run, traced := runEndToEnd, traces[0] == "1"
		if traced {
			run = runPerLayer
		}
		wr, err := run(cfg)
		if err != nil {
			return err
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		rep := &report{Header: newHeader(*seed, *seconds, *scale), Workloads: []*workloadReport{wr}}
		rep.print(os.Stdout)
		if err := rep.write(runFile(cfg.w, traces[0])); err != nil {
			return err
		}
		// The last line is the result in the shape the benchmark
		// contract fixes.
		line, err := json.Marshal(driverResult(wr, traced))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if wr.Failed > 0 {
			return fmt.Errorf("%d operations or output checks failed", wr.Failed)
		}
		return nil
	}

	// The suite runs every (workload, trace) pair in a process of its
	// own, as the driver does: a run's heap, collector pace and resident
	// set must not depend on the workload the process ran before.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := func() (*report, error) {
		rep := &report{Header: newHeader(*seed, *seconds, *scale)}
		for _, w := range selected {
			var wr *workloadReport
			for _, trace := range traces {
				path := runFile(w, trace)
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return nil, err
				}
				child := exec.Command(self, "-workload", w.name, "-trace", trace, "-seed", fmt.Sprint(*seed),
					"-seconds", fmt.Sprint(*seconds), "-scale", *scale, "-dir", *dir, fmt.Sprintf("-update-golden=%v", *updateGolden))
				child.Stderr = os.Stderr
				runErr := child.Run() // a run with failures exits non-zero after writing its report
				one, err := readReport(path)
				if err != nil {
					return nil, fmt.Errorf("%s -trace %s: %v (%w)", w.name, trace, runErr, err)
				}
				got := one.Workloads[0]
				if wr == nil {
					wr = got
				} else {
					wr.PerLayer, wr.LayerShare = got.PerLayer, got.LayerShare
					wr.Attempted += got.Attempted
					wr.Failed += got.Failed
				}
			}
			rep.Workloads = append(rep.Workloads, wr)
		}
		return rep, nil
	}

	rep, err := suite()
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if err := rep.write(filepath.Join(out, "report.json")); err != nil {
		return err
	}
	failed := 0
	for _, wr := range rep.Workloads {
		failed += wr.Failed
	}
	if *selfcheck {
		again, err := suite()
		if err != nil {
			return err
		}
		for _, wr := range again.Workloads {
			failed += wr.Failed
		}
		if compare(os.Stdout, rep, again) {
			return fmt.Errorf("selfcheck: two runs of the same binary differ by more than a bound")
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or output checks failed", failed)
	}
	return nil
}
