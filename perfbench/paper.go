package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/run"
)

// paperWorkload is a sequence of experiment tables run one after another,
// the way `c3ibench -run a,b -jobs 1` runs them, through a fresh Runner per
// iteration.
type paperWorkload struct {
	name        string
	experiments []string
	// scales declares, per registered workload the experiments use, the
	// scales the seed picks from. Each gives a different unit count and has
	// its own reference digests.
	scales []scaleSet
}

// scaleSet is one registered workload's declared scales.
type scaleSet struct {
	workload string
	scales   []float64
}

// paperMTA is kernel-bound: Plot-Track Assignment's thread sweep (fine
// grained on one MTA processor, up to 128 threads, against the coarse crew
// on the cached SMPs) and the paper's Table 11 (fine-grained Terrain Masking
// on one and two MTA processors, about a hundred threads per threat).
var paperMTA = paperWorkload{
	name:        "paper-mta",
	experiments: []string{"pt-streams", "table11"},
	scales: []scaleSet{
		{experiments.PT, []float64{0.098, 0.1, 0.102}}, // 49, 50, 51 plots per frame
		{experiments.TM, []float64{0.05}},              // 3 threat sites per scenario
	},
}

// paperSMP is cache-bound: the paper's Tables 9 and 10, coarse-grained
// Terrain Masking on the quad Pentium Pro and the 16-processor Exemplar.
// Terrain Masking clamps at 3 threat sites per scenario, and each further
// site adds about a quarter to the wall time, so one scale is declared.
var paperSMP = paperWorkload{
	name:        "paper-smp",
	experiments: []string{"table9", "table10"},
	scales:      []scaleSet{{experiments.TM, []float64{0.05}}},
}

// pick draws the workload's scales from the seed.
func (pw paperWorkload) pick(seed int64) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	for _, s := range pw.scales {
		out[s.workload] = s.scales[rng.Intn(len(s.scales))]
	}
	return out
}

// combinations lists every choice pick can make, first scales first.
func (pw paperWorkload) combinations() []map[string]float64 {
	combos := []map[string]float64{{}}
	for _, s := range pw.scales {
		var next []map[string]float64
		for _, c := range combos {
			for _, sc := range s.scales {
				m := map[string]float64{s.workload: sc}
				for k, v := range c {
					m[k] = v
				}
				next = append(next, m)
			}
		}
		combos = next
	}
	return combos
}

// paperIter is one iteration's measurements.
type paperIter struct {
	setup, wall time.Duration
	recs        map[string][]run.Record // by experiment
	cells       []time.Duration         // every Executor call
	first       []cellRun               // calls that first returned a key
	runner      *run.Runner
	spans       []span // this iteration's spans, traced iterations only
}

// cellRun is one Executor call that returned a key not seen before in the
// iteration: the engine execution behind it.
type cellRun struct {
	dur time.Duration
	rec run.Record
}

// cellExecutor wraps the Runner as the experiments' Config.Executor, timing
// every cell from outside. It is safe for concurrent use, in case experiment
// bodies run cells in parallel.
type cellExecutor struct {
	r      *run.Runner
	tr     *tracer
	parent int // the running experiment's span

	mu    sync.Mutex
	cells []time.Duration
	first []cellRun
	seen  map[string]bool
}

// Run implements run.Executor.
func (c *cellExecutor) Run(ctx context.Context, spec run.Spec) (run.Record, error) {
	sp := c.tr.begin("cell", spec.Workload, "", c.parent)
	start := time.Now()
	rec, err := c.r.Run(ctx, spec)
	d := time.Since(start)
	c.tr.end(sp)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells = append(c.cells, d)
	if err == nil && !c.seen[rec.Key] {
		c.seen[rec.Key] = true
		c.first = append(c.first, cellRun{dur: d, rec: rec})
		if c.tr != nil {
			end := c.tr.now()
			c.tr.add(span{Name: "engine", Kind: spec.Workload, Parent: sp, Start: end - rec.HostElapsed, End: end})
		}
	}
	return rec, err
}

// paperIteration runs the workload's experiments once on a fresh Runner.
// Set-up generates every scenario suite the experiments use; the wall time
// covers the experiments alone. A non-nil tracer records spans.
func paperIteration(pw paperWorkload, scales map[string]float64, tr *tracer) (paperIter, error) {
	it := paperIter{recs: map[string][]run.Record{}, runner: run.NewRunner(runtime.NumCPU())}
	nspans := 0
	if tr != nil {
		nspans = len(tr.snapshot())
	}
	root := tr.begin("workload", pw.name, "", -1)
	start := time.Now()
	for _, s := range pw.scales {
		if _, err := it.runner.Warm(s.workload, scales[s.workload]); err != nil {
			return it, err
		}
	}
	it.setup = time.Since(start)
	ex := &cellExecutor{r: it.runner, tr: tr, seen: map[string]bool{}}
	cfg := experiments.Config{Scales: scales, Executor: ex}
	start = time.Now()
	for _, id := range pw.experiments {
		e, err := experiments.Get(id)
		if err != nil {
			return it, err
		}
		ex.parent = tr.begin("experiment", id, "", root)
		res, err := e.RunContext(context.Background(), cfg)
		tr.end(ex.parent)
		if err != nil {
			return it, fmt.Errorf("%s: %w", id, err)
		}
		it.recs[id] = res.Records
	}
	it.wall = time.Since(start)
	tr.end(root)
	it.cells, it.first = ex.cells, ex.first
	if tr != nil {
		it.spans = rebase(tr.snapshot()[nspans:], nspans)
	}
	return it, nil
}

// rebase re-indexes a tail of the tracer's spans (starting at index off)
// so Parent indexes the slice itself.
func rebase(spans []span, off int) []span {
	out := append([]span(nil), spans...)
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent -= off
		}
	}
	return out
}

// maxLiveMedian is the median machine.max_live over the iteration's
// distinct Records.
func (it paperIter) maxLiveMedian() float64 {
	var v []float64
	for _, c := range it.first {
		v = append(v, float64(c.rec.Stats.MaxLive))
	}
	return median(v)
}

// layerValues derives one traced iteration's per-layer metrics.
func (it paperIter) layerValues() map[string]float64 {
	v := map[string]float64{}
	var cellSum time.Duration
	for _, d := range it.cells {
		cellSum += d
	}
	self := selfTimes(it.spans)
	var expSelf time.Duration
	for i, s := range it.spans {
		if s.Name == "experiment" {
			expSelf += self[i]
		}
	}
	v["experiments.cells"] = float64(len(it.cells))
	v["experiments.self_s"] = secs(expSelf)
	v["experiments.concurrency"] = ratio(secs(cellSum), secs(it.wall))

	var exec time.Duration
	var overhead []float64
	var st machine.Stats
	var maxLive []float64
	for _, c := range it.first {
		exec += c.rec.HostElapsed
		overhead = append(overhead, float64(c.dur-c.rec.HostElapsed)/float64(time.Microsecond))
		addStats(&st, c.rec.Stats)
		maxLive = append(maxLive, float64(c.rec.Stats.MaxLive))
	}
	snap := it.runner.Metrics().Snapshot()
	hits := counterSum(snap, run.MetricCacheHits)
	v["run.exec_s"] = secs(exec)
	v["run.overhead_us"] = median(overhead)
	v["run.executions"] = float64(it.runner.Executions())
	v["run.cache_hits"] = float64(hits)
	v["run.cache_hit_ratio"] = ratio(float64(hits), float64(len(it.cells)))
	v["run.store_errors"] = float64(it.runner.StoreErrors())
	v["run.wait_s"] = histogramSum(snap, run.MetricWaitSeconds)
	v["suite.generate_s"] = secs(it.setup)
	statValues(v, st, exec)
	v["machine.max_live"] = median(maxLive)
	return v
}

// addStats accumulates the engine counters of one Record.
func addStats(acc *machine.Stats, s machine.Stats) {
	acc.MemRefs += s.MemRefs
	acc.CacheHits += s.CacheHits
	acc.CacheMisses += s.CacheMisses
	acc.SyncOps += s.SyncOps
	acc.AtomicOps += s.AtomicOps
	acc.LockOps += s.LockOps
	acc.BarrierOps += s.BarrierOps
	acc.Spawns += s.Spawns
}

// statValues stores the machine and cache metrics of accumulated engine
// counters; exec is the host time the engines behind them took.
func statValues(v map[string]float64, st machine.Stats, exec time.Duration) {
	blocking := st.SyncOps + st.AtomicOps + st.LockOps + st.BarrierOps
	v["machine.spawns"] = float64(st.Spawns)
	v["machine.sync_ops"] = float64(st.SyncOps)
	v["machine.atomic_ops"] = float64(st.AtomicOps)
	v["machine.lock_ops"] = float64(st.LockOps)
	v["machine.barrier_ops"] = float64(st.BarrierOps)
	v["machine.mem_refs"] = float64(st.MemRefs)
	v["machine.blocking_op_ns"] = ratio(float64(exec), float64(blocking))
	v["cache.hits"] = float64(st.CacheHits)
	v["cache.misses"] = float64(st.CacheMisses)
	v["cache.hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
}

// counterSum adds a counter over all its label sets.
func counterSum(s obs.Snapshot, name string) int64 {
	var n int64
	for _, c := range s.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// histogramSum adds a histogram's observed sum over all its label sets.
func histogramSum(s obs.Snapshot, name string) float64 {
	var n float64
	for _, h := range s.Histograms {
		if h.Name == name {
			n += h.Sum
		}
	}
	return n
}

// runPaper measures a paper workload: iterations back to back until the
// measured time is up, each on a fresh Runner, every Record checked against
// the committed digests. Traced runs alternate untraced and traced
// iterations.
func runPaper(pw paperWorkload, o options) (outcome, error) {
	ref, err := loadDigests()
	if err != nil {
		return outcome{}, err
	}
	scales := pw.pick(o.seed)
	fmt.Printf("%s: seed %d scales %v\n", pw.name, o.seed, scales)
	var tr *tracer
	minIters := 3
	if o.trace {
		tr = newTracer()
		minIters = 4
	}
	alloc0, mallocs0, gcs0 := goCounters()
	mem := startMemPeak()
	out := outcome{values: map[string]float64{}}
	// Only each iteration's figures are kept, so its Runner and suites are
	// garbage before the next one starts. Cell j is the j-th Executor call
	// of an iteration, the same Spec in every iteration.
	var walls, setups, tWalls []float64
	var byCell [][]float64
	perIter := map[string][]float64{}
	// Start another iteration only while the last one would still fit, so a
	// run measures about o.seconds.
	deadline := time.Now().Add(o.seconds)
	var last time.Duration
	for i := 0; i < minIters || time.Until(deadline) > last; i++ {
		var itTr *tracer
		if o.trace && i%2 == 1 {
			itTr = tr
		}
		runtime.GC() // collect the previous iteration before timing this one
		start := time.Now()
		it, err := paperIteration(pw, scales, itTr)
		last = time.Since(start)
		if err != nil {
			fmt.Printf("%s: iteration %d: %v\n", pw.name, i, err)
			out.attempted++
			out.failed++
			continue
		}
		for _, id := range pw.experiments {
			out.attempted += int64(len(it.recs[id]))
			if bad := ref.mismatches(id, it.recs[id]); bad > 0 {
				fmt.Printf("%s: iteration %d: %s: %d Records differ from the reference digests\n", pw.name, i, id, bad)
				out.failed += int64(bad)
			}
		}
		if itTr != nil {
			tWalls = append(tWalls, secs(it.wall))
			for k, x := range it.layerValues() {
				perIter[k] = append(perIter[k], x)
			}
			continue
		}
		walls = append(walls, secs(it.wall))
		setups = append(setups, secs(it.setup))
		for j, d := range it.cells {
			if j == len(byCell) {
				byCell = append(byCell, nil)
			}
			byCell[j] = append(byCell[j], ms(d))
		}
	}
	// A cell's latency is its median over the iterations.
	var cells []float64
	for _, xs := range byCell {
		cells = append(cells, median(xs))
	}
	v := out.values
	counts := map[string]int{}
	v["mem_peak_mb"] = mem.mb()
	if !o.trace {
		v["wall_s"], counts["wall_s"] = median(walls), len(walls)
		v["setup_s"], counts["setup_s"] = median(setups), len(setups)
		v["p50_ms"], counts["p50_ms"] = percentile(cells, 0.50), len(cells)
		v["p99_ms"], counts["p99_ms"] = percentile(cells, 0.99), len(cells)
		summary(pw.name, counts, v)
		return out, nil
	}
	for k, xs := range perIter {
		v[k], counts[k] = median(xs), len(xs)
	}
	v["trace.overhead_ratio"] = ratio(median(tWalls), median(walls))
	addGoDeltas(v, alloc0, mallocs0, gcs0)
	runProbes(v, ref.SimProbeProcs)
	v["fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	zeroMissing(v, perLayer)
	if err := tr.write(outPath(fmt.Sprintf("trace-%s-%d.json", pw.name, o.seed))); err != nil {
		return out, err
	}
	summary(pw.name, counts, v)
	return out, nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
