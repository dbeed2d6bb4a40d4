// Workloads end to end: every registered C3I workload in every program
// style, each on the machines its style was written for, through the same
// run.Spec and run.Runner path the experiment tables take. Every validated
// checksum must equal the workload's reference variant's (the suite's
// correctness test), and each variant that stages private buffers projects
// them to the paper's full problem size against the MTA's memory. A workload
// registered in the suite appears here with no edit beyond its blank import.
//
//	go run ./examples/workloads
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	_ "repro/internal/c3i/hypothesis" // register the five shipped workloads
	_ "repro/internal/c3i/plottrack"
	_ "repro/internal/c3i/route"
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain"
	_ "repro/internal/c3i/threat"
	"repro/internal/platforms"
	"repro/internal/run"
)

// machine is one platform at one processor count.
type machine struct {
	platform string
	procs    int
}

// machines maps each program style to where the paper ran it: the
// sequential programs on the AlphaStation, the coarse-grained ones on the
// two SMPs at full size, and the Tera versions on one and two MTA
// processors.
var machines = map[suite.Style][]machine{
	suite.Sequential: {{"alpha", 1}},
	suite.Coarse:     {{"ppro", 4}, {"exemplar", 16}},
	suite.Fine:       {{"tera", 1}, {"tera", 2}},
}

func main() {
	tera, err := platforms.Get("tera")
	if err != nil {
		log.Fatal(err)
	}
	runner := run.NewRunner(0)
	ok := true
	for _, w := range suite.All() {
		var specs []run.Spec
		for _, v := range w.Variants {
			for _, m := range machines[v.Style] {
				specs = append(specs, run.Spec{
					Workload: w.Name, Variant: v.Name, Platform: m.platform, Procs: m.procs,
					Scale: w.SmallScale, Validate: true,
				})
			}
		}
		recs, err := runner.RunAll(context.Background(), specs)
		if err != nil {
			log.Fatal(err)
		}
		var golden run.Checksum
		for _, rec := range recs {
			if rec.Spec.Variant == w.Reference {
				golden = rec.Checksum
				break
			}
		}
		fmt.Printf("%s at scale %g: every variant must match %s's checksum %016x\n",
			w.Title, w.SmallScale, w.Reference, uint64(golden))
		fmt.Printf("  %-10s  %-8s  %5s  %14s  %12s\n", "variant", "platform", "procs", "paper-scale s", "buffers MB")
		for _, rec := range recs {
			note := ""
			if rec.Checksum == 0 || rec.Checksum != golden {
				note = fmt.Sprintf("  MISMATCH: checksum %016x", uint64(rec.Checksum))
				ok = false
			}
			fmt.Printf("  %-10s  %-8s  %5d  %14.3f  %12.3f%s\n", rec.Spec.Variant, rec.Spec.Platform,
				rec.Spec.Procs, rec.PaperSeconds, float64(rec.OverheadBytes)/(1<<20), note)
		}
		for _, v := range w.Variants {
			if v.OverheadFullScale == nil {
				continue
			}
			fmt.Printf("  %s private buffers at full scale:", v.Name)
			for _, workers := range []int{16, 128, 256} {
				fmt.Printf("  %d workers %.1f GB", workers, float64(v.OverheadFullScale(workers))/(1<<30))
			}
			fmt.Printf("  (the MTA has %d GB)\n", tera.MemoryBytes>>30)
		}
		fmt.Println()
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "workloads: a variant's checksum is zero or differs from its reference's")
		os.Exit(1)
	}
	fmt.Println("all variants agree with their reference on every machine")
}
