package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
	"repro/internal/report"
	"repro/internal/run"
)

// runProjectionScaling realizes the paper's stated future work (§8): "A
// potential strength of the Tera MTA that we were unable to investigate on a
// dual-processor configuration is scalability to large numbers of
// processors… It is possible that the Tera model of large numbers of
// fine-grained threads and no memory hierarchy may be effective in
// overcoming this obstacle."
//
// The projection runs both benchmarks on 1–64 processor MTA configurations
// under a mature-network assumption (latency multiplier 1.0, full bandwidth
// scaling), expressed as Spec network overrides. With a mature network the
// no-cache/many-threads model keeps scaling where the cached SMPs saturated
// — provided the program can supply enough threads, which is exactly the
// machine's precondition.
func runProjectionScaling(x *Exec) (*Result, error) {
	tb := &report.Table{
		ID:      "projection-scaling",
		Title:   "Projected Tera MTA scaling (the paper's future work, in the model)",
		Columns: []string{"Processors", "TA (speedup)", "TM fine (speedup)", "TM hybrid (speedup)"},
		Notes: []string{
			"mature network assumed (latency multiplier 1.0, full bandwidth); threads scale with processors",
			"TM fine keeps the per-threat driver serial (Amdahl-bound); TM hybrid overlaps drivers across workers with block locks",
			"Threat Analysis tops out when the 1000-threat outer loop runs out of parallelism — the paper's \"not all programs have the potential for hundreds of threads\"",
			fmt.Sprintf("scales %g/%g normalized", x.Cfg.Scale(TA), x.Cfg.Scale(TM)),
		},
	}

	mature := func(workload, variant string, procs int, params suite.Params) run.Spec {
		spec := x.Spec(workload, variant, "tera", procs, params)
		spec.NetLatencyMult, spec.NetBandwidthEff = 1.0, 1.0
		return spec
	}
	// Each processor count's three cells: TA with enough threads to cover
	// all processors' streams (until the threat count runs out — the
	// interesting limit), TM fine and TM hybrid.
	cells := func(procs int) []run.Spec {
		return []run.Spec{
			mature(TA, "coarse", procs, suite.Params{"chunks": max(256, procs*128)}),
			mature(TM, "fine", procs, suite.Params{"sectors": tmSectors * procs, "merge": tmMergeChunks * procs}),
			mature(TM, "hybrid", procs, suite.Params{"workers": procs * 2, "sectors": tmSectors, "merge": tmMergeChunks, "blocks": 10}),
		}
	}
	procCounts := []int{1, 2, 4, 8, 16, 32, 64}
	specs := cells(1) // the one-processor baselines
	for _, procs := range procCounts {
		specs = append(specs, cells(procs)...)
	}
	recs, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}

	series := []report.Series{
		{Label: "Threat Analysis", Marker: '*'},
		{Label: "TM fine", Marker: '+'},
		{Label: "TM hybrid", Marker: 'o'},
	}
	for j, procs := range procCounts {
		row := recs[3+3*j : 6+3*j]
		cols := []any{procs}
		for i := range series {
			speedup := recs[i].PaperSeconds / row[i].PaperSeconds
			cols = append(cols, report.FormatSpeedup(speedup))
			series[i].X = append(series[i].X, float64(procs))
			series[i].Y = append(series[i].Y, speedup)
		}
		tb.AddRow(cols...)
	}
	fig := &report.Figure{
		ID: "projection-figure", Title: "Projected MTA speedup vs processors (mature network)",
		XLabel: "processors", YLabel: "speedup", Series: series,
	}
	return &Result{Tables: []*report.Table{tb}, Figures: []*report.Figure{fig}}, nil
}
