package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
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
	for _, chunks := range []int{1, 2, 4, 8, 16, 21, 32, 64, 96, 128} {
		rec, err := x.Run(taChunked(x, "tera", 1, chunks))
		if err != nil {
			return nil, err
		}
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
	both := func(pipelined int) (float64, float64, error) {
		p := suite.Params{"pipelined": pipelined}
		taSec, err := x.Seconds(x.Spec(TA, "sequential", "tera", 1, p))
		if err != nil {
			return 0, 0, err
		}
		tmSec, err := x.Seconds(x.Spec(TM, "sequential", "tera", 1, p))
		if err != nil {
			return 0, 0, err
		}
		return taSec, tmSec, nil
	}

	taDep, tmDep, err := both(0)
	if err != nil {
		return nil, err
	}
	taPipe, tmPipe, err := both(1)
	if err != nil {
		return nil, err
	}

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

	base1TA, err := x.Seconds(x.Spec(TA, "coarse", "tera", 1, taParams))
	if err != nil {
		return nil, err
	}
	base1TM, err := x.Seconds(x.Spec(TM, "fine", "tera", 1, tmParams))
	if err != nil {
		return nil, err
	}

	tb := &report.Table{
		ID:      "ablation-network",
		Title:   "Two-processor Tera MTA speedup vs interconnection-network maturity",
		Columns: []string{"Latency multiplier", "Bandwidth efficiency", "TA speedup", "TM speedup"},
		Notes: []string{
			"paper: \"The less-than-ideal speedup may be a result of the development status of the current Tera MTA network\"; defaults are 1.8/0.62",
		},
	}
	for _, net := range []struct{ lat, bw float64 }{
		{1.0, 1.0}, {1.4, 0.8}, {1.8, 0.62}, {2.5, 0.45},
	} {
		netSpec := func(workload, variant string, params suite.Params) run.Spec {
			spec := x.Spec(workload, variant, "tera", 2, params)
			spec.NetLatencyMult, spec.NetBandwidthEff = net.lat, net.bw
			return spec
		}
		taSec, err := x.Seconds(netSpec(TA, "coarse", taParams))
		if err != nil {
			return nil, err
		}
		tmSec, err := x.Seconds(netSpec(TM, "fine", tmParams))
		if err != nil {
			return nil, err
		}
		tb.AddRow(net.lat, net.bw,
			report.FormatSpeedup(base1TA/taSec),
			report.FormatSpeedup(base1TM/tmSec))
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
	for _, blocks := range []int{1, 2, 4, 10, 20, 40} {
		sec, err := x.Seconds(tmCoarse(x, "exemplar", 16, 16, blocks))
		if err != nil {
			return nil, err
		}
		tb.AddRow(blocks, blocks*blocks, sec)
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

	// Threat Analysis.
	coarseEx, err := x.Seconds(taChunked(x, "exemplar", 16, 16))
	if err != nil {
		return nil, err
	}
	fineEx, err := x.Seconds(taFine(x, "exemplar", 16))
	if err != nil {
		return nil, err
	}
	tb.AddRow("Threat Analysis", "Exemplar (16 proc)", coarseEx, fineEx, fmt.Sprintf("%.2f", fineEx/coarseEx))
	coarseT, err := x.Seconds(taChunked(x, "tera", 1, 256))
	if err != nil {
		return nil, err
	}
	fineT, err := x.Seconds(taFine(x, "tera", 1))
	if err != nil {
		return nil, err
	}
	tb.AddRow("Threat Analysis", "Tera MTA (1 proc)", coarseT, fineT, fmt.Sprintf("%.2f", fineT/coarseT))

	// Terrain Masking.
	coarseTMEx, err := x.Seconds(tmCoarse(x, "exemplar", 16, 16, tmBlocks))
	if err != nil {
		return nil, err
	}
	fineTMEx, err := x.Seconds(tmFine(x, "exemplar", 16))
	if err != nil {
		return nil, err
	}
	tb.AddRow("Terrain Masking", "Exemplar (16 proc)", coarseTMEx, fineTMEx, fmt.Sprintf("%.2f", fineTMEx/coarseTMEx))
	fineTMT, err := x.Seconds(tmFine(x, "tera", 1))
	if err != nil {
		return nil, err
	}
	tb.AddRow("Terrain Masking", "Tera MTA (1 proc)", "infeasible (memory)", fineTMT, "—")
	return &Result{Tables: []*report.Table{tb}}, nil
}
