// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 2–12, Figures 1–4), plus ablations of the model's
// design choices. Each experiment runs the real benchmark programs through
// the machine models and reports the model's numbers side by side with the
// paper's.
//
// Experiments are consumers of the internal/run execution API: each table,
// ablation and projection declares run.Specs (resolved through the
// internal/c3i/suite registry — experiments never call a workload's solver
// functions or construct machine engines directly), executes them through
// the shared run.Runner, and formats the resulting run.Records. The raw
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
	"strings"
	"sync"
	"time"

	_ "repro/internal/c3i/hypothesis" // register the Hypothesis Testing workload
	_ "repro/internal/c3i/plottrack"  // register the Plot-Track Assignment workload
	_ "repro/internal/c3i/route"      // register the Route Optimization workload
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain" // register the Terrain Masking workload
	_ "repro/internal/c3i/threat"  // register the Threat Analysis workload
	"repro/internal/obs"
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
	// included), in execution order — the machine-readable counterpart of
	// the tables, and the payload of `c3ibench -json`.
	Records []run.Record
}

// Exec is the context an experiment body runs in: the scale configuration,
// the cancellation context, and the shared Runner every Spec goes through.
// It collects each executed Record for the experiment's Result.
type Exec struct {
	Cfg    Config
	ctx    context.Context
	runner run.Executor

	mu      sync.Mutex
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

// Run executes a Spec through the shared Runner and collects its Record.
func (x *Exec) Run(spec run.Spec) (run.Record, error) {
	rec, err := x.runner.Run(x.ctx, spec)
	if err != nil {
		return rec, err
	}
	x.mu.Lock()
	x.records = append(x.records, rec)
	x.mu.Unlock()
	return rec, nil
}

// Seconds is Run reduced to the paper-scale-normalized seconds most table
// cells need.
func (x *Exec) Seconds(spec run.Spec) (float64, error) {
	rec, err := x.Run(spec)
	return rec.PaperSeconds, err
}

// Experiment is one reproducible unit: a paper table/figure or an ablation.
type Experiment struct {
	ID    string
	Title string
	body  func(x *Exec) (*Result, error)
}

// Run executes the experiment at the given scales through the package's
// shared Runner.
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
	return append(all, Experiment{"ht-grid", "Hypothesis Testing over the declared scenario grid (scale × gate × prune × network)", runHypoGrid})
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

// Outcome is one experiment's result from a RunMany batch.
type Outcome struct {
	Experiment Experiment
	Result     *Result
	Err        error
	Elapsed    time.Duration
}

// RunMany runs the experiments with the given IDs through a pool of jobs
// workers (jobs ≤ 1 means serial) and returns outcomes in the requested
// order regardless of completion order, so parallel sweeps report exactly
// like serial ones. The shared Runner's caches are single-flight, so cells
// reused across experiments (e.g. the summary tables) are computed once even
// when the experiments needing them run concurrently. Unknown IDs yield an
// Outcome with Err set; the remaining experiments still run.
func RunMany(ids []string, cfg Config, jobs int) []Outcome {
	return RunEach(ids, cfg, jobs, nil)
}

// RunEach is RunMany with streaming: emit (if non-nil) is called once per
// outcome, in request order, as soon as that outcome and all its
// predecessors have completed — a serial run therefore reports each
// experiment the moment it finishes, exactly like a plain loop, while a
// parallel run still prints deterministically.
func RunEach(ids []string, cfg Config, jobs int, emit func(Outcome)) []Outcome {
	out := make([]Outcome, len(ids))
	ready := make([]chan struct{}, len(ids))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(ids) {
		jobs = len(ids)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = runExperiment(ids[i], cfg)
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range ids {
			work <- i
		}
		close(work)
	}()
	for i := range ids {
		<-ready[i]
		if emit != nil {
			emit(out[i])
		}
	}
	wg.Wait()
	return out
}

// runExperiment resolves and runs one experiment ID.
func runExperiment(id string, cfg Config) Outcome {
	id = strings.TrimSpace(id)
	e, err := Get(id)
	if err != nil {
		return Outcome{Experiment: Experiment{ID: id}, Err: err}
	}
	start := time.Now() //c3ivet:ignore determinism host-elapsed bookkeeping; model output comes from e.Run
	res, err := e.Run(cfg)
	return Outcome{Experiment: e, Result: res, Err: err, Elapsed: time.Since(start)} //c3ivet:ignore determinism Elapsed is host wall-clock, never part of the model artifact
}

// sharedRunner executes every experiment Spec; its suite and Record caches
// are what make concurrent RunMany sweeps compute shared cells once.
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

// ResetCaches drops the shared Runner's memoized workloads and results
// (tests and the per-iteration benchmark harness use this to control memory
// and measurement).
func ResetCaches() {
	sharedRunner.Reset()
}

// Metrics exposes the shared Runner's metrics registry — per-workload
// execution latency histograms and cache/store counters accumulated across
// every experiment run in this process. `c3ibench -stats` snapshots it after
// a sweep. Note that Reset/ResetCaches does not zero metrics: they count the
// process's whole history, which is exactly what a post-sweep snapshot wants.
func Metrics() *obs.Registry {
	return sharedRunner.Metrics()
}
