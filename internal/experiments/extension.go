package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
	"repro/internal/platforms"
	"repro/internal/report"
	"repro/internal/run"
)

// Thread and crew counts of the suite-extension tables: hundreds of threads
// on the MTA, one worker per processor on the conventional machines.
const (
	mtaThreads  = 256 // fine-grained threads on the MTA
	mtaCrew     = 64  // coarse crew size on the MTA
	fineCompare = 64  // fine-grained thread count for cross-platform comparisons
)

// extension describes the three tables every suite-extension workload gets
// (<key>-sequential, <key>-streams and <key>-variants) by what the registry
// does not hold; the ID prefix, titles and unit counts come from its
// suite.Workload. The paper evaluated only Threat Analysis and Terrain
// Masking, so these tables have no paper column.
type extension struct {
	workload     string // registered workload name
	crew         string // what the coarse MTA cell's crew members are called
	streamsNote  string // <key>-streams: each architecture's practical style
	buffers      string // <key>-variants: the coarse style's private storage at full size
	variantsNote string // <key>-variants: where the styles serialize
}

// The suite-extension workloads.
var (
	routeExt = extension{
		workload:     RO,
		crew:         "chunks",
		streamsNote:  "MTA runs the fine-grained shared-bucket variant, the SMPs the coarse private-buffer variant (each architecture's practical style)",
		buffers:      "private candidate buffers at full terrain resolution",
		variantsNote: "two MTA processors gain little here: each wavefront's dependent-load chain bounds the phase critical path, and the development-status network lengthens it (cf. the paper's 1.4 Terrain Masking speedup)",
	}
	plotExt = extension{
		workload:     PT,
		crew:         "workers",
		streamsNote:  "MTA runs the asynchronous auction, the SMPs the Jacobi crew auction (each architecture's practical style)",
		buffers:      "private bid buffers at the full C3I surveillance-frame size",
		variantsNote: "the contested-track commits serialize on per-track locks for the coarse crew; the MTA's full/empty cells make the same serialization word-grained",
	}
	hypoExt = extension{
		workload:     HT,
		crew:         "workers",
		streamsNote:  "MTA commits evidence through full/empty score guards, the SMPs reduce private partial buffers (each architecture's practical style)",
		buffers:      "private partial-score buffers at the full C3I hypothesis-space size",
		variantsNote: "the contested evidence commits serialize on the merge reduction for the coarse crew; the MTA's full/empty guards make the same serialization word-grained",
	}
)

// extSeq declares an extension workload's sequential program on a platform.
func extSeq(x *Exec, workload, key string, procs int) run.Spec {
	return x.Spec(workload, "sequential", key, procs, nil)
}

// extCoarse declares an extension workload's coarse variant: a crew of
// workers with private buffers and a locked merge.
func extCoarse(x *Exec, workload, key string, procs, workers int) run.Spec {
	return x.Spec(workload, "coarse", key, procs, suite.Params{"workers": workers})
}

// extFine declares an extension workload's fine-grained variant: threadsN
// threads synchronizing through fetch-and-add claims and full/empty cells.
func extFine(x *Exec, workload, key string, procs, threadsN int) run.Spec {
	return x.Spec(workload, "fine", key, procs, suite.Params{"threads": threadsN})
}

// experiments returns the workload's three tables in listing order.
func (e extension) experiments() []Experiment {
	w := mustWorkload(e.workload)
	return []Experiment{
		{w.Key + "-sequential", fmt.Sprintf("Sequential %s without parallelization (suite extension)", w.Title), e.sequential},
		{w.Key + "-streams", w.Title + " scaling with threads: MTA vs cached SMPs (+ figure)", e.streams},
		{w.Key + "-variants", w.Title + " parallelization styles across platforms", e.variants},
	}
}

// sequential builds the paper-style sequential table: the workload without
// parallelization on all four platforms, each relative to the Alpha, the
// paper's sequential yardstick.
func (e extension) sequential(x *Exec) (*Result, error) {
	w := mustWorkload(e.workload)
	tb := &report.Table{
		ID:      w.Key + "-sequential",
		Title:   fmt.Sprintf("Execution time of sequential %s without parallelization", w.Title),
		Columns: []string{"Platform", "Model (s)", "vs Alpha"},
		Notes: []string{
			fmt.Sprintf("suite extension: the C3IPBS %s problem, not evaluated in the paper", w.Title),
			fmt.Sprintf("model at scale %g, normalized to the suite's %d %s",
				x.Cfg.Scale(e.workload), w.PaperUnits, w.UnitName),
		},
	}
	recs, err := x.RunAll(seqSpecs(x, e.workload))
	if err != nil {
		return nil, err
	}
	alpha := recs[0].PaperSeconds // seqPlatforms lists the Alpha first
	for i, p := range seqPlatforms {
		sec := recs[i].PaperSeconds
		tb.AddRow(p.name, sec, fmt.Sprintf("%.2f", sec/alpha))
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// streams sweeps the thread count on one MTA processor (fine-grained
// variant) against the same sweep on the cached SMPs (coarse variant, their
// practical style): the MTA keeps gaining as streams multiply while the
// conventional machines saturate at their processor and bus limits — the
// acceptance shape for every extension workload.
func (e extension) streams(x *Exec) (*Result, error) {
	w := mustWorkload(e.workload)
	tb := &report.Table{
		ID:    w.Key + "-streams",
		Title: w.Title + " vs thread count: one Tera MTA processor against the cached SMPs",
		Columns: []string{"Threads", "MTA fine (s)", "MTA issue util",
			"Exemplar-16 coarse (s)", "PPro-4 coarse (s)"},
		Notes: []string{e.streamsNote, fmt.Sprintf("scale %g normalized", x.Cfg.Scale(e.workload))},
	}
	series := []report.Series{
		{Label: "Tera MTA (1 proc)", Marker: '*'},
		{Label: "Exemplar (16 proc)", Marker: '+'},
		{Label: "Pentium Pro (4 proc)", Marker: 'o'},
	}
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var specs []run.Spec
	for _, n := range counts {
		specs = append(specs,
			extFine(x, e.workload, "tera", 1, n),
			extCoarse(x, e.workload, "exemplar", 16, n),
			extCoarse(x, e.workload, "ppro", 4, n))
	}
	recs, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for j, n := range counts {
		row := recs[3*j : 3*j+3] // MTA fine, Exemplar coarse, PPro coarse
		tb.AddRow(n, row[0].PaperSeconds, fmt.Sprintf("%.1f%%", row[0].Stats.ProcUtil[0]*100),
			row[1].PaperSeconds, row[2].PaperSeconds)
		for i := range series {
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, recs[i].PaperSeconds/row[i].PaperSeconds)
		}
	}
	fig := &report.Figure{
		ID: w.Key + "-streams-figure", Title: w.Title + " speedup vs threads (speedup over 1 thread)",
		XLabel: "threads", YLabel: "speedup", Series: series,
	}
	return &Result{Tables: []*report.Table{tb}, Figures: []*report.Figure{fig}}, nil
}

// variantCell is one row of a <key>-variants table: the program style, the
// platform and the Spec whose seconds fill the model column.
type variantCell struct {
	group, name string
	spec        run.Spec
}

// variants compares the three program styles across platforms — the
// Table 7/12 analogue for an extension workload — and records why the
// coarse style cannot use the MTA's hundreds of streams (private-buffer
// memory).
func (e extension) variants(x *Exec) (*Result, error) {
	tera, err := platforms.Get("tera")
	if err != nil {
		return nil, err
	}
	w := mustWorkload(e.workload)
	tb := &report.Table{
		ID:      w.Key + "-variants",
		Title:   "Performance comparison for execution times of " + w.Title,
		Columns: []string{"Parallelization", "Platform", "Model (s)"},
		Notes: []string{
			fmt.Sprintf("coarse style at %d workers would need %.1f GB of %s vs %d GB on the MTA",
				mtaThreads, coarseOverheadFullScaleGB(e.workload, mtaThreads), e.buffers, tera.MemoryBytes>>30),
			e.variantsNote,
			fmt.Sprintf("scale %g normalized", x.Cfg.Scale(e.workload)),
		},
	}
	cells := []variantCell{
		{"None", "Alpha", extSeq(x, e.workload, "alpha", 1)},
		{"None", "Tera", extSeq(x, e.workload, "tera", 1)},
		{"Coarse", "Pentium Pro (4 processors)", extCoarse(x, e.workload, "ppro", 4, 4)},
		{"Coarse", "Exemplar (16 processors)", extCoarse(x, e.workload, "exemplar", 16, 16)},
		{"Coarse", fmt.Sprintf("Tera MTA (1 processor, %d %s)", mtaCrew, e.crew), extCoarse(x, e.workload, "tera", 1, mtaCrew)},
		{"Fine-grained", fmt.Sprintf("Exemplar (16 processors, %d threads)", fineCompare), extFine(x, e.workload, "exemplar", 16, fineCompare)},
		{"Fine-grained", fmt.Sprintf("Tera MTA (1 processor, %d threads)", mtaThreads), extFine(x, e.workload, "tera", 1, mtaThreads)},
		{"Fine-grained", fmt.Sprintf("Tera MTA (2 processors, %d threads)", mtaThreads), extFine(x, e.workload, "tera", 2, mtaThreads)},
	}
	recs, err := x.RunAll(specsOf(cells, func(c variantCell) run.Spec { return c.spec }))
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		tb.AddRow(c.group, c.name, recs[i].PaperSeconds)
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}

// runPlotPipelined isolates the role of exposed memory latency in the
// sequential auction on the cache-less MTA: the bid loop's price loads are
// serially dependent in the calibrated kernel; the ablation re-prices them
// as fully pipelined streaming traffic (perfect lookahead) — the same
// restructuring argument as the repo-wide ablation-latency experiment,
// applied to the suite's synchronization-heavy workload.
func runPlotPipelined(x *Exec) (*Result, error) {
	recs, err := x.RunAll([]run.Spec{
		x.Spec(PT, "sequential", "tera", 1, suite.Params{"pipelined": 0}),
		x.Spec(PT, "sequential", "tera", 1, suite.Params{"pipelined": 1}),
	})
	if err != nil {
		return nil, err
	}
	dep, pipe := recs[0].PaperSeconds, recs[1].PaperSeconds
	tb := &report.Table{
		ID:      "pt-pipelined",
		Title:   "Sequential Plot-Track Assignment on one Tera MTA processor: dependent price loads vs perfect lookahead",
		Columns: []string{"Kernel", "Calibrated (s)", "All refs pipelined (s)", "Latency share"},
		Notes: []string{
			"with no cache, the bid loop's price-chasing loads expose the full memory latency to a lone stream; multithreading (not lookahead) is what hides it",
			fmt.Sprintf("scale %g normalized", x.Cfg.Scale(PT)),
		},
	}
	tb.AddRow("Plot-Track Assignment", dep, pipe, fmt.Sprintf("%.0f%%", 100*(dep-pipe)/dep))
	return &Result{Tables: []*report.Table{tb}}, nil
}

// Grid returns the experiment that sweeps a workload's declared scenario
// grid, restricted when restrict is non-empty to subsets of the declared
// axis values: one validated cell per point (see run.GridSpecs) through
// variant (empty: the workload's reference) on procs processors of
// platform. Its ID is "grid:<workload>". It fails before anything runs on
// an unknown workload, variant or axis, an undeclared value, or a workload
// that declares no grid.
func Grid(workload, variant, platform string, procs int, restrict map[string][]float64) (Experiment, error) {
	pts, err := run.GridSpecs(workload, variant, platform, procs, restrict)
	if err != nil {
		return Experiment{}, err
	}
	w, err := suite.Lookup(workload)
	if err != nil {
		return Experiment{}, err
	}
	if variant == "" {
		variant = w.Reference
	}
	id := "grid:" + workload
	title := fmt.Sprintf("%s scenario grid (%s on %s, %d procs, %d points)",
		w.Title, variant, platform, procs, len(pts))
	return Experiment{id, title, func(x *Exec) (*Result, error) {
		return runGrid(x, w, pts, &report.Table{ID: id, Title: title, Notes: []string{
			"row-major over the declared axes; every point validates, so every row carries the conformance checksum",
		}})
	}}, nil
}

// hypoGrid is ht-grid: the Hypothesis Testing grid — every combination of
// scale, gating window, prune threshold and network maturity — through the
// fine-grained variant on a two-processor MTA.
func hypoGrid(x *Exec) (*Result, error) {
	pts, err := run.GridSpecs(HT, "fine", "tera", 2, nil)
	if err != nil {
		return nil, err
	}
	return runGrid(x, mustWorkload(HT), pts, &report.Table{
		ID:    "ht-grid",
		Title: "Hypothesis Testing over the declared scenario grid (fine-grained, two-processor Tera MTA)",
		Notes: []string{
			fmt.Sprintf("%d grid points, row-major over the declared axes; net 0 is the calibrated network", len(pts)),
			"model seconds normalized per point to the suite's full observation load at that point's scale",
		},
	})
}

// runGrid is the grid-sweep body: it runs the points' Specs as one batch
// and adds a row per point to tb, holding the point's axis values, its model
// seconds normalized to paper scale and its checksum. Unlike the other
// experiments, each point carries its own scale (the grid's scale axis), so
// the configured scale does not apply.
func runGrid(x *Exec, w *suite.Workload, pts []run.GridPoint, tb *report.Table) (*Result, error) {
	recs, err := x.RunAll(specsOf(pts, func(gp run.GridPoint) run.Spec { return gp.Spec }))
	if err != nil {
		return nil, err
	}
	for _, a := range w.Grid.Axes {
		tb.Columns = append(tb.Columns, a.Name)
	}
	tb.Columns = append(tb.Columns, "Model (s)", "Checksum")
	for i, gp := range pts {
		row := []any{}
		for _, a := range w.Grid.Axes {
			row = append(row, fmt.Sprintf("%g", gp.Point[a.Name]))
		}
		tb.AddRow(append(row, recs[i].PaperSeconds, fmt.Sprintf("%016x", uint64(recs[i].Checksum)))...)
	}
	return &Result{Tables: []*report.Table{tb}}, nil
}
