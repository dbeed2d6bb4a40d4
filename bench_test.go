// Package repro's top-level benchmarks enumerate the experiment and workload
// registries, one sub-benchmark per entry:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation; each iteration runs the experiment on a fresh one-job Runner
// (cold caches, one cell at a time, as the committed baseline was
// measured), so the reported time is the full serial cost of reproducing
// that table with the machine models. The custom metric "key-model-s" is the
// experiment's headline model value in normalized simulated seconds (e.g.
// the Tera row of a sequential table, or the maximum-processor-count row of
// a speedup table), so shape regressions show up in benchmark output
// directly. BenchmarkWorkloadVariants times each registered workload variant
// over its suite on the AlphaStation model, executed through the
// internal/run API (Runner.Execute bypasses the record cache so every
// iteration measures a real engine run) — new workloads get benchmarked by
// registering, with no edits here.
package repro

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/run"
)

// benchCfg keeps benchmark runs quick; shapes are unaffected (times are
// normalized to the paper's workload size).
var benchCfg = experiments.Config{Scales: map[string]float64{
	experiments.TA: 0.1,
	experiments.TM: 0.2,
	experiments.RO: 0.1,
	experiments.PT: 0.1,
	experiments.HT: 0.1,
}}

// benchVariantScale sizes the per-variant workload benchmarks.
const benchVariantScale = 0.05

// lastCell parses the last column of the table's last row as a float metric.
func lastCell(res *experiments.Result) float64 {
	if len(res.Tables) == 0 {
		return 0
	}
	tb := res.Tables[0]
	if len(tb.Rows) == 0 {
		return 0
	}
	row := tb.Rows[len(tb.Rows)-1]
	for i := len(row) - 1; i >= 0; i-- {
		if v, err := strconv.ParseFloat(row[i], 64); err == nil {
			return v
		}
	}
	return 0
}

// BenchmarkExperiments regenerates each registered experiment from scratch.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg
				cfg.Executor = run.NewRunner(1)
				res, err := e.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(lastCell(res), "key-model-s")
				}
			}
		})
	}
}

// BenchmarkWorkloadVariants runs every registered workload variant (default
// params) over its scenario suite on the AlphaStation model through
// run.Runner. The metric "model-s" is the run's simulated seconds normalized
// to paper scale (the Record's PaperSeconds).
func BenchmarkWorkloadVariants(b *testing.B) {
	ctx := context.Background()
	runner := run.NewRunner(1)
	for _, w := range suite.All() {
		// Suite generation and warming live inside the per-workload group
		// (Runner.Warm memoizes them outside the timed sub-benchmarks), so
		// -bench filters skip the setup of unselected workloads.
		b.Run(w.Key, func(b *testing.B) {
			if _, err := runner.Warm(w.Name, benchVariantScale); err != nil {
				b.Fatal(err)
			}
			for _, v := range w.Variants {
				spec := run.Spec{
					Workload: w.Name, Variant: v.Name,
					Platform: "alpha", Procs: 1,
					Scale: benchVariantScale,
				}
				b.Run(v.Name, func(b *testing.B) {
					var modelSec float64
					for i := 0; i < b.N; i++ {
						rec, err := runner.Execute(ctx, spec)
						if err != nil {
							b.Fatal(err)
						}
						modelSec = rec.PaperSeconds
					}
					b.ReportMetric(modelSec, "model-s")
				})
			}
		})
	}
}
