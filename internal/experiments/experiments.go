// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 2–12, Figures 1–4), plus ablations of the model's
// design choices. Each experiment runs the real benchmark programs through
// the machine models and reports the model's numbers side by side with the
// paper's.
//
// Experiments are consumers of the internal/run execution API: each table,
// ablation and projection declares its cells as run.Specs (resolved through
// the internal/c3i/suite registry — experiments never call a workload's
// solver functions or construct machine engines directly), executes them as
// one batch, and formats the resulting run.Records. The raw
// records ride along in Result.Records, so every cell of every table is
// individually addressable, serializable and reproducible from its Spec.
// Workloads run at a configurable scale (fraction of the paper's unit
// counts); reported model times are normalized back to scale 1, so they are
// directly comparable with the paper columns. Comparisons are about shape —
// who wins, by what factor, where the curves bend — not absolute seconds;
// every table prints both.
package experiments

import (
	"context"
	"fmt"

	_ "repro/internal/c3i/hypothesis" // register the Hypothesis Testing workload
	_ "repro/internal/c3i/plottrack"  // register the Plot-Track Assignment workload
	_ "repro/internal/c3i/route"      // register the Route Optimization workload
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain" // register the Terrain Masking workload
	_ "repro/internal/c3i/threat"  // register the Threat Analysis workload
	"repro/internal/report"
	"repro/internal/run"
)

// Registered workload names, as used in Config.Scales and the run helpers.
const (
	TA = "threat-analysis"
	TM = "terrain-masking"
	RO = "route-optimization"
	PT = "plot-track-assignment"
	HT = "hypothesis-testing"
)

// Config controls workload sizes and execution placement for one experiment
// run.
type Config struct {
	// Scales maps a registered workload name to the fraction of its
	// paper-scale workload to run; missing or non-positive entries fall
	// back to the workload's registered default.
	Scales map[string]float64
	// Executor, when non-nil, executes every declared Spec — e.g. a
	// serve.Client pointing at a c3iserve process (`c3ibench -remote`).
	// Nil means the package's shared in-process Runner.
	Executor run.Executor
}

// DefaultConfig takes every registered workload at its registered default
// scale — balanced between fidelity (enough units for the paper's
// granularity effects) and wall-clock time.
func DefaultConfig() Config {
	cfg := Config{Scales: map[string]float64{}}
	for _, w := range suite.All() {
		cfg.Scales[w.Name] = w.DefaultScale
	}
	return cfg
}

// Scale returns the configured scale for a workload, falling back to the
// registry default.
func (c Config) Scale(workload string) float64 {
	if s, ok := c.Scales[workload]; ok && s > 0 {
		return s
	}
	if w, err := suite.Lookup(workload); err == nil {
		return w.DefaultScale
	}
	return 1
}

// Result is an experiment's output: the rendered tables and figures, plus
// the raw execution records behind every model cell.
type Result struct {
	Tables  []*report.Table
	Figures []*report.Figure
	Text    string
	// Records are the run.Records this experiment executed (cache hits
	// included), in the order its body declared the cells — the
	// machine-readable counterpart of the tables, and the payload of
	// `c3ibench -json`.
	Records []run.Record
}

// Exec is the context an experiment body runs in: the scale configuration,
// the cancellation context, and the executor every Spec goes through. It
// collects each executed Record for the experiment's Result.
type Exec struct {
	Cfg     Config
	ctx     context.Context
	runner  run.Executor
	records []run.Record
}

// Spec builds the canonical run.Spec for a registered workload variant on a
// paper platform at the Exec's configured scale.
func (x *Exec) Spec(workload, variant, platform string, procs int, params suite.Params) run.Spec {
	return run.Spec{
		Workload: workload,
		Variant:  variant,
		Platform: platform,
		Procs:    procs,
		Scale:    x.Cfg.Scale(workload),
		Params:   params,
	}
}

// RunAll executes a body's cells as one batch through the experiment's
// executor (see run.Batch) and returns their Records in the order given,
// which is also their order in the experiment's Result.Records.
func (x *Exec) RunAll(specs []run.Spec) ([]run.Record, error) {
	recs, err := run.Batch(x.ctx, x.runner, specs)
	if err != nil {
		return nil, err
	}
	x.records = append(x.records, recs...)
	return recs, nil
}

// specsOf declares one cell per element of xs, in order.
func specsOf[T any](xs []T, spec func(T) run.Spec) []run.Spec {
	specs := make([]run.Spec, len(xs))
	for i, v := range xs {
		specs[i] = spec(v)
	}
	return specs
}

// Experiment is one reproducible unit: a paper table/figure or an ablation.
type Experiment struct {
	ID    string
	Title string
	body  func(x *Exec) (*Result, error)
}

// Run executes the experiment at the given scales through cfg.Executor, or
// the package's shared Runner when that is nil.
func (e Experiment) Run(cfg Config) (*Result, error) {
	return e.RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: Specs not yet started when ctx is
// cancelled fail with the context error.
func (e Experiment) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if e.body == nil {
		return nil, fmt.Errorf("experiments: experiment %q has no body", e.ID)
	}
	executor := cfg.Executor
	if executor == nil {
		executor = sharedRunner
	}
	x := &Exec{Cfg: cfg, ctx: ctx, runner: executor}
	res, err := e.body(x)
	if err != nil {
		return nil, err
	}
	res.Records = x.records
	return res, nil
}

// All returns every experiment in paper order, then the suite extensions.
func All() []Experiment {
	all := []Experiment{
		{"table1", "Platforms used in the performance comparison", runTable1},
		{"table2", "Sequential Threat Analysis without parallelization", runTable2},
		{"table3", "Multithreaded Threat Analysis on quad-processor Pentium Pro (+ Figure 1)", runTable3},
		{"table4", "Multithreaded Threat Analysis on 16-processor Exemplar (+ Figure 2)", runTable4},
		{"table5", "Multithreaded Threat Analysis on dual-processor Tera MTA", runTable5},
		{"table6", "Threat Analysis vs number of chunks on Tera MTA", runTable6},
		{"table7", "Performance comparison for Threat Analysis", runTable7},
		{"table8", "Sequential Terrain Masking without parallelization", runTable8},
		{"table9", "Coarse-grained Terrain Masking on quad-processor Pentium Pro (+ Figure 3)", runTable9},
		{"table10", "Coarse-grained Terrain Masking on 16-processor Exemplar (+ Figure 4)", runTable10},
		{"table11", "Fine-grained Terrain Masking on dual-processor Tera MTA", runTable11},
		{"table12", "Performance comparison for Terrain Masking", runTable12},
		{"autopar", "Automatic parallelization verdicts for Programs 1–4", runAutopar},
		{"ablation-streams", "MTA utilization and time vs thread count (single processor)", runAblationStreams},
		{"ablation-latency", "MTA exposed-memory-latency ablation (lookahead/dependence)", runAblationLatency},
		{"ablation-network", "Two-processor MTA speedup vs network maturity", runAblationNetwork},
		{"ablation-blocking", "Terrain Masking lock-blocking factor on the Exemplar", runAblationBlocking},
		{"ablation-finegrain-smp", "Fine-grained styles on conventional SMP vs the MTA", runAblationFineGrainSMP},
		{"projection-scaling", "Projected MTA scaling to many processors (the paper's future work)", runProjectionScaling},
	}
	all = append(all, routeExt.experiments()...)
	all = append(all, plotExt.experiments()...)
	all = append(all, Experiment{"pt-pipelined", "Plot-Track Assignment exposed-latency ablation (dependent price loads vs perfect lookahead)", runPlotPipelined})
	all = append(all, hypoExt.experiments()...)
	return append(all, Experiment{"ht-grid", "Hypothesis Testing over the declared scenario grid (scale × gate × prune × network)", hypoGrid})
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// sharedRunner executes every experiment Spec when Config.Executor is nil,
// running each body's cells GOMAXPROCS at a time; its single-flight caches
// compute a cell that several experiments share once.
var sharedRunner = run.NewRunner(0)

// mustWorkload returns a registered workload. The workload names here are
// compile-time constants, so a failed lookup is a programming error and
// panics rather than corrupting a published table.
func mustWorkload(name string) *suite.Workload {
	w, err := suite.Lookup(name)
	if err != nil {
		panic(err)
	}
	return w
}

// coarseOverheadFullScaleGB projects a workload's coarse-variant
// private-buffer storage at full problem size for a worker count, in GB —
// the feasibility note the MTA tables quote. Panics if the workload has no
// coarse variant with an OverheadFullScale hook (a wiring error, not data).
func coarseOverheadFullScaleGB(workload string, workers int) float64 {
	v := mustWorkload(workload).MustVariant("coarse")
	if v.OverheadFullScale == nil {
		panic(fmt.Sprintf("experiments: %s coarse variant has no OverheadFullScale hook", workload))
	}
	return float64(v.OverheadFullScale(workers)) / float64(1<<30)
}
