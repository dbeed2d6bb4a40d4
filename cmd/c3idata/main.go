// Command c3idata manages C3IPBS benchmark data: it generates the five-input
// scenario files for each registered workload (with golden output checksums
// — the suite's "correctness test for the benchmark output data") and
// re-validates solver outputs against them. Workloads, scale flags, file
// names, reference solvers and the set of variants re-checked at -check all
// come from the internal/c3i/suite registry, and internal/c3i/data encodes
// each registered workload's scenario type as it is, so a newly registered
// workload joins the data tools with no edits here or in data.
//
// Route Optimization and Plot-Track Assignment register all three program
// variants for -check, since they must converge to identical outputs; the
// other workloads re-check their sequential reference.
//
// -scale-small overrides every per-workload scale with its registered
// SmallScale — the registry-derived smoke preset CI uses, so newly
// registered workloads are covered without pipeline edits.
//
//	c3idata -gen -dir ./data -scale-ta 0.1 -scale-tm 0.1 -scale-ro 0.25
//	c3idata -gen -dir ./data -scale-small
//	c3idata -check -dir ./data
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/c3i/data"
	_ "repro/internal/c3i/hypothesis" // register the Hypothesis Testing workload
	_ "repro/internal/c3i/plottrack"  // register the Plot-Track Assignment workload
	_ "repro/internal/c3i/route"      // register the Route Optimization workload
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain" // register the Terrain Masking workload
	_ "repro/internal/c3i/threat"  // register the Threat Analysis workload
	"repro/internal/run"
)

func main() {
	var (
		gen   = flag.Bool("gen", false, "generate scenario files and golden checksums")
		check = flag.Bool("check", false, "solve stored scenarios and verify against goldens")
		dir   = flag.String("dir", "c3ipbs-data", "data directory")
		small = flag.Bool("scale-small", false,
			"use every workload's registered smoke-test scale (overrides the per-workload -scale-* flags)")
	)
	scales := map[string]*float64{}
	for _, w := range suite.All() {
		scales[w.Name] = flag.Float64("scale-"+w.Key, w.DataScale,
			fmt.Sprintf("%s scale (1 = %d %s)", w.Title, w.PaperUnits, w.UnitName))
	}
	flag.Parse()
	if *small {
		for _, w := range suite.All() {
			*scales[w.Name] = w.SmallScale
		}
	}
	switch {
	case *gen:
		if err := generate(*dir, scales); err != nil {
			log.Fatal(err)
		}
	case *check:
		if err := validate(*dir); err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "c3idata: use -gen or -check")
		os.Exit(2)
	}
}

// runner executes every validation run; RunScenario keeps engine
// construction inside the internal/run API while solving the exact
// scenarios loaded from (or about to be written to) disk.
var runner = run.NewRunner(0)

// solve runs one registered variant over a scenario on the reference machine
// (the Alpha model; outputs are machine-independent) in validate mode and
// returns the checksummed output.
func solve(w *suite.Workload, v *suite.Variant, sc suite.Scenario) (suite.Output, error) {
	rec, err := runner.RunScenario(context.Background(), run.Spec{
		Workload: w.Name, Variant: v.Name, Platform: "alpha", Procs: 1, Validate: true,
	}, sc)
	if err != nil {
		return suite.Output{}, err
	}
	return suite.Output{Checksum: uint64(rec.Checksum), OverheadBytes: rec.OverheadBytes}, nil
}

// scenarioPath names a workload's i-th scenario file (1-based).
func scenarioPath(dir string, w *suite.Workload, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.c3i", w.FileTag, i))
}

func generate(dir string, scales map[string]*float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var goldens []data.Golden
	for _, w := range suite.All() {
		ref := w.MustVariant(w.Reference)
		for i, sc := range w.Generate(*scales[w.Name]) {
			path := scenarioPath(dir, w, i+1)
			if err := data.Save(path, w, sc); err != nil {
				return err
			}
			out, err := solve(w, ref, sc)
			if err != nil {
				return err
			}
			goldens = append(goldens, data.Golden{
				Scenario: sc.ScenarioName(), Kind: w.Name, Checksum: out.Checksum,
			})
			fmt.Printf("wrote %-22s %5d %-24s checksum %016x\n",
				path, sc.Units(), w.UnitName, out.Checksum)
		}
	}
	gpath := filepath.Join(dir, "golden.c3i")
	if err := data.SaveGolden(gpath, goldens); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d records)\n", gpath, len(goldens))
	return nil
}

func validate(dir string) error {
	goldens, err := data.LoadGolden(filepath.Join(dir, "golden.c3i"))
	if err != nil {
		return err
	}
	failures := 0
	for _, w := range suite.All() {
		for i := 1; ; i++ {
			path := scenarioPath(dir, w, i)
			if _, err := os.Stat(path); err != nil {
				break
			}
			sc, err := data.Load(path, w)
			if err != nil {
				return err
			}
			// Every registered validate variant must reproduce the golden.
			for _, name := range w.ValidateVariants {
				out, err := solve(w, w.MustVariant(name), sc)
				if err != nil {
					return err
				}
				if err := data.CheckGolden(goldens, sc.ScenarioName(), w.Name, out.Checksum); err != nil {
					fmt.Printf("FAIL %s (%s): %v\n", path, name, err)
					failures++
				} else {
					fmt.Printf("ok   %s (%s)\n", path, name)
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("c3idata: %d correctness failures", failures)
	}
	fmt.Println("all outputs match their goldens")
	return nil
}
