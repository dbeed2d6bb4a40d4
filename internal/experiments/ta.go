package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
	"repro/internal/report"
	"repro/internal/run"
)

// taSeq declares sequential Threat Analysis on a platform.
func taSeq(x *Exec, key string, procs int) run.Spec {
	return x.Spec(TA, "sequential", key, procs, nil)
}

// taChunked declares the chunked (Program 2) variant.
func taChunked(x *Exec, key string, procs, chunks int) run.Spec {
	return x.Spec(TA, "coarse", key, procs, suite.Params{"chunks": chunks})
}

// taFine declares the fine-grained (sync-variable) variant.
func taFine(x *Exec, key string, procs int) run.Spec {
	return x.Spec(TA, "fine", key, procs, nil)
}

// seqPlatforms are the rows of every sequential table (Tables 2 and 8 and
// the suite extensions'): the four platforms, Alpha first, each at its
// processor count.
var seqPlatforms = []struct {
	name, key string
	procs     int
}{
	{"Alpha", "alpha", 1},
	{"Pentium Pro", "ppro", 4},
	{"Exemplar", "exemplar", 16},
	{"Tera", "tera", 1},
}

// runTable2 reproduces Table 2: sequential Threat Analysis on all four
// platforms.
func runTable2(x *Exec) (*Result, error) {
	return sequentialTable(x, "table2", TA, PaperTable2)
}

// sequentialTable builds a paper sequential table (Tables 2 and 8): the
// workload without parallelization on all four platforms beside the paper's
// seconds, its note naming the registered paper unit count.
func sequentialTable(x *Exec, id, workload string, paper map[string]float64) (*Result, error) {
	w := mustWorkload(workload)
	tb := &report.Table{
		ID:      id,
		Title:   fmt.Sprintf("Execution time of sequential %s without parallelization", w.Title),
		Columns: []string{"Platform", "Paper (s)", "Model (s)", "Model/Paper"},
		Notes: []string{fmt.Sprintf("model at scale %g, normalized to the paper's %d %s",
			x.Cfg.Scale(workload), w.PaperUnits, w.UnitName)},
	}
	for _, p := range seqPlatforms {
		sec, err := x.Seconds(x.Spec(workload, "sequential", p.key, p.procs, nil))
		if err != nil {
			return nil, err
		}
		tb.AddRow(p.name, paper[p.name], sec, fmt.Sprintf("%.2f", sec/paper[p.name]))
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// speedupTable runs a processor sweep — specs[0] is the sequential program,
// specs[p] the parallel one on p processors — and builds the paper-style
// processors/time/speedup table plus the corresponding speedup figure.
func speedupTable(x *Exec, id, figID, title, figTitle string, paper map[int]float64,
	specs []run.Spec, note string) (*Result, error) {

	model := make([]float64, len(specs))
	for p, spec := range specs {
		sec, err := x.Seconds(spec)
		if err != nil {
			return nil, err
		}
		model[p] = sec
	}
	tb := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Number of processors", "Paper (s)", "Paper speedup", "Model (s)", "Model speedup"},
		Notes:   []string{note},
	}
	paperSeq, modelSeq := paper[0], model[0]
	tb.AddRow("Sequential", paperSeq, "N.A.", modelSeq, "N.A.")
	fig := &report.Figure{
		ID: figID, Title: figTitle,
		XLabel: "processors", YLabel: "speedup",
	}
	var paperS, modelS report.Series
	paperS.Label, paperS.Marker = "paper", '+'
	modelS.Label, modelS.Marker = "model", '*'
	for p := 1; p < len(specs); p++ {
		ps, ms := paper[p], model[p]
		tb.AddRow(p, ps, report.FormatSpeedup(paperSeq/ps), ms, report.FormatSpeedup(modelSeq/ms))
		paperS.X = append(paperS.X, float64(p))
		paperS.Y = append(paperS.Y, paperSeq/ps)
		modelS.X = append(modelS.X, float64(p))
		modelS.Y = append(modelS.Y, modelSeq/ms)
	}
	fig.Series = []report.Series{modelS, paperS}
	return &Result{Tables: []*report.Table{tb}, Figures: []*report.Figure{fig}}, nil
}

// runTable3 reproduces Table 3 / Figure 1: chunked Threat Analysis on the
// quad Pentium Pro, one chunk per processor.
func runTable3(x *Exec) (*Result, error) {
	specs := []run.Spec{taSeq(x, "ppro", 4)}
	for p := 1; p <= 4; p++ {
		specs = append(specs, taChunked(x, "ppro", p, p))
	}
	return speedupTable(x, "table3", "figure1",
		"Execution time of multithreaded Threat Analysis on quad-processor Pentium Pro",
		"Speedup of multithreaded Threat Analysis on quad-processor Pentium Pro",
		PaperTable3, specs,
		fmt.Sprintf("one chunk/thread per processor; scale %g normalized", x.Cfg.Scale(TA)))
}

// runTable4 reproduces Table 4 / Figure 2: chunked Threat Analysis on the
// 16-processor Exemplar.
func runTable4(x *Exec) (*Result, error) {
	specs := []run.Spec{taSeq(x, "exemplar", 16)}
	for p := 1; p <= 16; p++ {
		specs = append(specs, taChunked(x, "exemplar", p, p))
	}
	return speedupTable(x, "table4", "figure2",
		"Execution time of multithreaded Threat Analysis on 16-processor Exemplar",
		"Speedup of multithreaded Threat Analysis on 16-processor Exemplar",
		PaperTable4, specs,
		fmt.Sprintf("one chunk/thread per processor; scale %g normalized", x.Cfg.Scale(TA)))
}

// runTable5 reproduces Table 5: chunked Threat Analysis on the Tera MTA with
// 256 chunks, one and two processors.
func runTable5(x *Exec) (*Result, error) {
	return teraTable(x, "table5", TA, PaperTable5,
		[]run.Spec{taChunked(x, "tera", 1, 256), taChunked(x, "tera", 2, 256)},
		fmt.Sprintf("256 chunks; scale %g normalized", x.Cfg.Scale(TA)))
}

// teraTable runs a parallel program on one and two Tera MTA processors —
// specs[0] and specs[1] — and builds the paper's two-row table with both
// speedups (Tables 5 and 11).
func teraTable(x *Exec, id, workload string, paper map[int]float64, specs []run.Spec, notes ...string) (*Result, error) {
	tb := &report.Table{
		ID:      id,
		Title:   fmt.Sprintf("Execution time of multithreaded %s on dual-processor Tera MTA", mustWorkload(workload).Title),
		Columns: []string{"Number of Processors", "Paper (s)", "Paper speedup", "Model (s)", "Model speedup"},
		Notes:   notes,
	}
	var oneProc float64
	for i, spec := range specs {
		sec, err := x.Seconds(spec)
		if err != nil {
			return nil, err
		}
		p := i + 1
		if p == 1 {
			oneProc = sec
		}
		tb.AddRow(p, paper[p], report.FormatSpeedup(paper[1]/paper[p]),
			sec, report.FormatSpeedup(oneProc/sec))
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runTable6 reproduces Table 6: Threat Analysis on the dual-processor Tera
// MTA as the chunk count varies.
func runTable6(x *Exec) (*Result, error) {
	tb := &report.Table{
		ID:      "table6",
		Title:   "Execution time of multithreaded Threat Analysis with varying number of chunks on Tera MTA",
		Columns: []string{"Number of Chunks", "Paper (s)", "Model (s)"},
		Notes:   []string{fmt.Sprintf("two processors; scale %g normalized", x.Cfg.Scale(TA))},
	}
	for _, chunks := range suite.SortedKeys(PaperTable6) {
		sec, err := x.Seconds(taChunked(x, "tera", 2, chunks))
		if err != nil {
			return nil, err
		}
		tb.AddRow(chunks, PaperTable6[chunks], sec)
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runTable7 reproduces Table 7: the Threat Analysis summary across
// parallelization strategies and platforms.
func runTable7(x *Exec) (*Result, error) {
	return summary(x, "table7", TA, []summaryCell{
		{"None", "Alpha", 187, taSeq(x, "alpha", 1)},
		{"None", "Pentium Pro", 458, taSeq(x, "ppro", 4)},
		{"None", "Exemplar", 343, taSeq(x, "exemplar", 16)},
		{"None", "Tera", 2584, taSeq(x, "tera", 1)},
		{"Automatic", "Exemplar", 343, taSeq(x, "exemplar", 16)},
		{"Automatic", "Tera", 2584, taSeq(x, "tera", 1)},
		{"Manual", "Pentium Pro (4 processors)", 117, taChunked(x, "ppro", 4, 4)},
		{"Manual", "Exemplar (4 processors)", 87, taChunked(x, "exemplar", 4, 4)},
		{"Manual", "Exemplar (8 processors)", 43, taChunked(x, "exemplar", 8, 8)},
		{"Manual", "Exemplar (16 processors)", 22, taChunked(x, "exemplar", 16, 16)},
		{"Manual", "Tera MTA (1 processor)", 82, taChunked(x, "tera", 1, 256)},
		{"Manual", "Tera MTA (2 processors)", 46, taChunked(x, "tera", 2, 256)},
	})
}

// summaryCell is one row of a paper summary table: the parallelization
// group, the platform, the paper's seconds and the Spec whose seconds fill
// the model column.
type summaryCell struct {
	group, name string
	paper       float64
	spec        run.Spec
}

// summary runs each cell's Spec in order and builds a paper summary table
// across parallelization strategies and platforms (Tables 7 and 12). The
// "Automatic" rows equal the sequential rows because the dependence analyzer
// (like the paper's compilers) finds no practical opportunities — see the
// autopar experiment.
func summary(x *Exec, id, workload string, cells []summaryCell) (*Result, error) {
	tb := &report.Table{
		ID:      id,
		Title:   "Performance comparison for execution times of " + mustWorkload(workload).Title,
		Columns: []string{"Parallelization", "Platform", "Paper (s)", "Model (s)"},
		Notes: []string{
			"automatic parallelization found no opportunities (see experiment `autopar`), so those rows equal sequential execution",
			fmt.Sprintf("scale %g normalized", x.Cfg.Scale(workload)),
		},
	}
	for _, c := range cells {
		sec, err := x.Seconds(c.spec)
		if err != nil {
			return nil, err
		}
		tb.AddRow(c.group, c.name, c.paper, sec)
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}
