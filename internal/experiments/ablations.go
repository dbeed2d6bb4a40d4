package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
	"repro/internal/mta"
	"repro/internal/report"
	"repro/internal/run"
)

// runAblationStreams demonstrates the paper's §7 claim that the MTA needs
// on the order of 80–100 concurrent threads to approach full utilization of
// even one processor: Threat Analysis on one MTA processor as the chunk
// (= thread) count grows, with measured issue utilization.
func runAblationStreams(x *Exec) (*Result, error) {
	tb := &report.Table{
		ID:      "ablation-streams",
		Title:   "Threat Analysis on one Tera MTA processor vs thread count",
		Columns: []string{"Chunks (threads)", "Model (s)", "Issue utilization"},
		Notes: []string{
			"paper §7: \"80 concurrent threads are typically required to obtain full utilization of a single Tera MTA processor\"",
			fmt.Sprintf("scale %g normalized", x.Cfg.Scale(TA)),
		},
	}
	fig := &report.Figure{
		ID: "ablation-streams-figure", Title: "MTA issue utilization vs thread count",
		XLabel: "threads (chunks)", YLabel: "utilization %",
	}
	var series report.Series
	series.Label, series.Marker = "issue utilization", '*'
	chunkCounts := []int{1, 2, 4, 8, 16, 21, 32, 64, 96, 128}
	recs, err := x.RunAll(specsOf(chunkCounts, func(chunks int) run.Spec {
		return taChunked(x, "tera", 1, chunks)
	}))
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		chunks := chunkCounts[i]
		tb.AddRow(chunks, rec.PaperSeconds, fmt.Sprintf("%.1f%%", rec.Stats.ProcUtil[0]*100))
		series.X = append(series.X, float64(chunks))
		series.Y = append(series.Y, rec.Stats.ProcUtil[0]*100)
	}
	fig.Series = []report.Series{series}
	return &Result{Tables: []*report.Table{tb}, Figures: []*report.Figure{fig}}, nil
}

// runAblationLatency isolates the role of exposed memory latency (the
// cache-less MTA's dependent loads) in sequential performance: the same
// kernels re-priced with all references fully pipelined (perfect lookahead,
// the sequential variants' "pipelined" parameter) versus the calibrated
// dependence mix.
func runAblationLatency(x *Exec) (*Result, error) {
	var specs []run.Spec
	for _, pipelined := range []int{0, 1} {
		p := suite.Params{"pipelined": pipelined}
		specs = append(specs, x.Spec(TA, "sequential", "tera", 1, p), x.Spec(TM, "sequential", "tera", 1, p))
	}
	recs, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}
	taDep, tmDep := recs[0].PaperSeconds, recs[1].PaperSeconds
	taPipe, tmPipe := recs[2].PaperSeconds, recs[3].PaperSeconds

	tb := &report.Table{
		ID:      "ablation-latency",
		Title:   "Sequential execution on one Tera MTA processor: dependent loads vs perfect lookahead",
		Columns: []string{"Kernel", "Calibrated (s)", "All refs pipelined (s)", "Latency share"},
		Notes: []string{
			"with no cache, serially-dependent loads expose the full memory latency to a lone stream; multithreading (not lookahead) is what hides it",
		},
	}
	tb.AddRow("Threat Analysis", taDep, taPipe, fmt.Sprintf("%.0f%%", 100*(taDep-taPipe)/taDep))
	tb.AddRow("Terrain Masking", tmDep, tmPipe, fmt.Sprintf("%.0f%%", 100*(tmDep-tmPipe)/tmDep))
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runAblationNetwork sweeps the "development status of the current Tera MTA
// network" factors the paper blames for the 1.4–1.8 two-processor speedups:
// remote-latency multiplier and aggregate bandwidth efficiency, expressed as
// Spec network overrides on the two-processor MTA.
func runAblationNetwork(x *Exec) (*Result, error) {
	taParams := suite.Params{"chunks": 256}
	tmParams := suite.Params{"sectors": tmSectors, "merge": tmMergeChunks}
	nets := []struct{ lat, bw float64 }{{1.0, 1.0}, {1.4, 0.8}, {1.8, 0.62}, {2.5, 0.45}}
	// The one-processor baselines, then each network's two-processor pair.
	specs := []run.Spec{x.Spec(TA, "coarse", "tera", 1, taParams), x.Spec(TM, "fine", "tera", 1, tmParams)}
	for _, net := range nets {
		ta, tm := x.Spec(TA, "coarse", "tera", 2, taParams), x.Spec(TM, "fine", "tera", 2, tmParams)
		ta.NetLatencyMult, ta.NetBandwidthEff = net.lat, net.bw
		tm.NetLatencyMult, tm.NetBandwidthEff = net.lat, net.bw
		specs = append(specs, ta, tm)
	}
	recs, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}

	calibrated := mta.DefaultParams(2)
	tb := &report.Table{
		ID:      "ablation-network",
		Title:   "Two-processor Tera MTA speedup vs interconnection-network maturity",
		Columns: []string{"Latency multiplier", "Bandwidth efficiency", "TA speedup", "TM speedup"},
		Notes: []string{
			fmt.Sprintf("paper: \"The less-than-ideal speedup may be a result of the development status of the current Tera MTA network\"; the calibrated model uses %g/%g",
				calibrated.NetLatencyMult, calibrated.NetBandwidthEff),
		},
	}
	for i, net := range nets {
		ta, tm := recs[2+2*i], recs[3+2*i]
		tb.AddRow(net.lat, net.bw,
			report.FormatSpeedup(recs[0].PaperSeconds/ta.PaperSeconds),
			report.FormatSpeedup(recs[1].PaperSeconds/tm.PaperSeconds))
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runAblationBlocking sweeps the coarse-grained Terrain Masking blocking
// factor on the 16-processor Exemplar: one big lock serializes the merge
// phase; the paper's ten-by-ten blocking is already in the flat region.
func runAblationBlocking(x *Exec) (*Result, error) {
	tb := &report.Table{
		ID:      "ablation-blocking",
		Title:   "Coarse-grained Terrain Masking on 16-processor Exemplar vs lock blocking factor",
		Columns: []string{"Blocks per side", "Locks", "Model (s)"},
		Notes:   []string{fmt.Sprintf("16 workers; scale %g normalized; the paper ran ten-by-ten", x.Cfg.Scale(TM))},
	}
	blockCounts := []int{1, 2, 4, 10, 20, 40}
	recs, err := x.RunAll(specsOf(blockCounts, func(blocks int) run.Spec {
		return tmCoarse(x, "exemplar", 16, 16, blocks)
	}))
	if err != nil {
		return nil, err
	}
	for i, blocks := range blockCounts {
		tb.AddRow(blocks, blocks*blocks, recs[i].PaperSeconds)
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runAblationFineGrainSMP shows the paper's asymmetry claim: fine-grained
// styles (hundreds of threads, per-element synchronization) are practical on
// the MTA and unreasonable on conventional machines, where coarse chunking
// is the right tool.
func runAblationFineGrainSMP(x *Exec) (*Result, error) {
	tb := &report.Table{
		ID:      "ablation-finegrain-smp",
		Title:   "Fine-grained vs coarse-grained styles across architectures",
		Columns: []string{"Kernel", "Platform", "Coarse (s)", "Fine-grained (s)", "Fine/Coarse"},
		Notes: []string{
			"fine-grained Threat Analysis = one thread per threat + atomic interval appends; fine-grained Terrain Masking = parallel inner loops per threat",
			"paper §7: thread creation and synchronization are \"many orders of magnitude less costly on the Tera MTA\"",
		},
	}

	recs, err := x.RunAll([]run.Spec{
		taChunked(x, "exemplar", 16, 16), taFine(x, "exemplar", 16),
		taChunked(x, "tera", 1, 256), taFine(x, "tera", 1),
		tmCoarse(x, "exemplar", 16, 16, tmBlocks), tmFine(x, "exemplar", 16),
		tmFine(x, "tera", 1),
	})
	if err != nil {
		return nil, err
	}
	sec := func(i int) float64 { return recs[i].PaperSeconds }
	for i, row := range []struct{ kernel, platform string }{
		{"Threat Analysis", "Exemplar (16 proc)"},
		{"Threat Analysis", "Tera MTA (1 proc)"},
		{"Terrain Masking", "Exemplar (16 proc)"},
	} {
		coarse, fine := sec(2*i), sec(2*i+1)
		tb.AddRow(row.kernel, row.platform, coarse, fine, fmt.Sprintf("%.2f", fine/coarse))
	}
	tb.AddRow("Terrain Masking", "Tera MTA (1 proc)", "infeasible (memory)", sec(6), "—")
	return &Result{Tables: []*report.Table{tb}}, nil
}
