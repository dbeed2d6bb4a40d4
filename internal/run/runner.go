package run

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Metric names the Runner publishes in its registry, all labeled
// {workload=...}. The serving tier exposes the same registry on
// `GET /metrics`, and the CI smoke job greps these names, so they are part
// of the observable API.
const (
	// MetricExecutions counts engine executions (cache hits and
	// single-flight collapses excluded) — the counter form of Executions().
	MetricExecutions = "run_executions_total"
	// MetricExecSeconds is the per-workload engine execution latency
	// histogram (host seconds, not simulated seconds).
	MetricExecSeconds = "run_exec_seconds"
	// MetricWaitSeconds is how long callers blocked on another caller's
	// in-flight computation of the same Spec (single-flight queue wait).
	MetricWaitSeconds = "run_wait_seconds"
	// MetricCacheHits counts Runs served without executing: in-memory
	// record-cache hits plus single-flight collapses.
	MetricCacheHits = "run_cache_hits_total"
	// MetricStoreHits counts Runs answered from the persistent record
	// store instead of an engine execution.
	MetricStoreHits = "run_store_hits_total"
	// MetricStoreErrors counts failed record-store writes (persistence
	// degraded to recomputation) — the counter form of StoreErrors().
	MetricStoreErrors = "run_store_errors_total"
)

// Executor executes Specs into Records — the consumer-facing face of the
// run API. The local *Runner implements it; so does serve.Client, which
// forwards Specs to a c3iserve process, so any consumer written against
// Executor (the experiment tables, `c3ibench -remote`) runs locally or
// remotely unchanged.
type Executor interface {
	Run(ctx context.Context, spec Spec) (Record, error)
}

var _ Executor = (*Runner)(nil)

// Batch executes specs through e and returns their Records in the same
// order. An executor that runs whole batches itself (a *Runner, a
// serve.Client) gets one RunAll call; any other Executor gets one Run per
// Spec, serially and in order, and the first error ends the batch — so a
// Run-only executor sees exactly the calls of a loop over specs.
func Batch(ctx context.Context, e Executor, specs []Spec) ([]Record, error) {
	if b, ok := e.(interface {
		RunAll(context.Context, []Spec) ([]Record, error)
	}); ok {
		return b.RunAll(ctx, specs)
	}
	recs := make([]Record, len(specs))
	for i, spec := range specs {
		rec, err := e.Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}

// Runner executes Specs. It owns the two caches every consumer shares: the
// memoized (and pre-warmed) scenario suites per workload×scale, and the
// single-flight Record cache keyed by Spec.Key, so concurrent consumers that
// need the same cell compute it exactly once. A Runner is safe for
// concurrent use; create one per process (or per benchmark iteration, when
// the point is to measure uncached cost).
type Runner struct {
	jobs    int
	suites  onceMap[[]suite.Scenario]
	runs    onceMap[Record]
	execs   atomic.Int64
	metrics *obs.Registry

	storeMu   sync.RWMutex
	store     Store
	storeErrs atomic.Int64
}

// NewRunner returns a Runner whose RunAll fans out over at most jobs
// concurrent executions; jobs < 1 means GOMAXPROCS.
func NewRunner(jobs int) *Runner {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{jobs: jobs, metrics: obs.NewRegistry()}
}

// Metrics returns the Runner's metrics registry: per-workload execution
// latency histograms, cache/store/execution counters and single-flight wait
// times (the Metric* names above). The serving tier merges its own request
// metrics into the same registry and serves both on GET /metrics;
// `c3ibench -stats` snapshots it after a sweep.
func (r *Runner) Metrics() *obs.Registry { return r.metrics }

// workloadLabels renders the one label set every Runner metric carries.
func workloadLabels(workload string) obs.Labels { return obs.Labels{"workload": workload} }

// SetStore layers a persistent Record store under the in-memory
// single-flight cache: a cache miss consults the store before executing, and
// a freshly computed Record is saved back. Load and Save run inside the
// single-flight critical section, so one key is probed and written at most
// once per process even under concurrent identical batches, and a store hit
// never counts as an engine execution. Save failures do not fail the run —
// persistence degrades to recomputation — but are counted for StoreErrors.
// A nil store detaches persistence again.
func (r *Runner) SetStore(s Store) {
	r.storeMu.Lock()
	r.store = s
	r.storeMu.Unlock()
}

// getStore returns the currently attached store, if any.
func (r *Runner) getStore() Store {
	r.storeMu.RLock()
	defer r.storeMu.RUnlock()
	return r.store
}

// StoreErrors reports how many store Save calls have failed so far — the
// serving layer's health endpoint surfaces it, since a store that silently
// stopped persisting turns every restart into a cold start.
func (r *Runner) StoreErrors() int64 { return r.storeErrs.Load() }

// Warm generates (or returns the memoized) scenario suite for a workload at
// a scale, with every scenario's internal caches populated so concurrent
// runs only read shared state.
func (r *Runner) Warm(workload string, scale float64) ([]suite.Scenario, error) {
	if scale <= 0 {
		w, err := suite.Lookup(workload)
		if err != nil {
			return nil, err
		}
		scale = w.DefaultScale
	}
	return r.suites.do(fmt.Sprintf("%s|s%g", workload, scale), func() ([]suite.Scenario, error) {
		w, err := suite.Lookup(workload)
		if err != nil {
			return nil, err
		}
		scs := w.Generate(scale)
		for _, sc := range scs {
			sc.Warm()
		}
		return scs, nil
	})
}

// Run executes the Spec and returns its Record, serving repeats from the
// single-flight cache. Cancellation is checked before the engine starts; a
// run already executing completes (the simulation is not preemptible), and
// concurrent callers collapsed onto it receive its Record.
func (r *Runner) Run(ctx context.Context, spec Spec) (Record, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Record{}, err
	}
	key := ns.render()
	labels := workloadLabels(ns.Workload)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Record{}, err
		}
		rec, err, shared, wait := r.runs.doTracked(key, func() (Record, error) {
			if s := r.getStore(); s != nil {
				if rec, ok := s.Load(key); ok {
					r.metrics.Counter(MetricStoreHits, labels).Inc()
					return rec, nil
				}
			}
			rec, err := r.execute(ctx, ns)
			if err == nil {
				if s := r.getStore(); s != nil {
					if serr := s.Save(rec); serr != nil {
						r.storeErrs.Add(1)
						r.metrics.Counter(MetricStoreErrors, labels).Inc()
					}
				}
			}
			return rec, err
		})
		if wait > 0 {
			r.metrics.Histogram(MetricWaitSeconds, labels, obs.DefLatencyBuckets).Observe(wait.Seconds())
		}
		if shared && err == nil {
			r.metrics.Counter(MetricCacheHits, labels).Inc()
		}
		// A single-flight winner whose context was cancelled fails every
		// caller collapsed onto it with *its* context error. Errors are
		// never memoized, so a caller whose own context is still live tries
		// again rather than inheriting the winner's cancellation — but only
		// after yielding: a fresh caller that keeps collapsing onto winners
		// cancelled just after they start would otherwise hot-spin on the
		// scheduler instead of letting a live winner get going. Repeat
		// losses back off a little (capped), bounding the retry rate even
		// when every winner keeps dying immediately.
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			runtime.Gosched()
			if attempt > 0 {
				backoff := time.Duration(attempt) * 100 * time.Microsecond
				if backoff > 5*time.Millisecond {
					backoff = 5 * time.Millisecond
				}
				time.Sleep(backoff)
			}
			continue
		}
		return rec, err
	}
}

// Execute runs the Spec without consulting or populating the Record cache
// (the scenario-suite cache is still used). Benchmarks use it to measure the
// true per-run cost repeatedly.
func (r *Runner) Execute(ctx context.Context, spec Spec) (Record, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Record{}, err
	}
	return r.execute(ctx, ns)
}

// RunScenario executes the Spec's variant over explicitly supplied scenarios
// instead of the registry-generated suite — the data tools validate
// scenarios loaded from disk this way. Results are not cached: scenario
// identity is not part of a Spec's Key.
func (r *Runner) RunScenario(ctx context.Context, spec Spec, scs ...suite.Scenario) (Record, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Record{}, err
	}
	if len(scs) == 0 {
		return Record{}, fmt.Errorf("run: RunScenario %s: no scenarios", ns.render())
	}
	return r.executeOn(ctx, ns, scs)
}

// RunAll executes the Specs through a pool of at most the Runner's
// configured jobs, returning records positionally. Once ctx is cancelled,
// not-yet-started Specs fail fast with the context error; the returned error
// joins every per-Spec failure, and successful entries are valid regardless.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) ([]Record, error) {
	if len(specs) == 0 {
		// Nothing to do — and nothing to spawn: the worker clamp below
		// would otherwise start one goroutine just to drain an empty feed.
		return nil, nil
	}
	recs := make([]Record, len(specs))
	errs := make([]error, len(specs))
	jobs := r.jobs
	if jobs > len(specs) {
		jobs = len(specs)
	}
	if jobs < 1 {
		jobs = 1
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				recs[i], errs[i] = r.Run(ctx, specs[i])
				if errs[i] != nil {
					errs[i] = fmt.Errorf("spec %d (%s): %w", i, specs[i].Key(), errs[i])
				}
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	return recs, errors.Join(errs...)
}

// Executions reports how many engine runs this Runner has performed —
// cache hits and single-flight collapses do not count. Tests and capacity
// accounting use it.
func (r *Runner) Executions() int64 { return r.execs.Load() }

// Reset drops both caches (tests and per-iteration benchmark harnesses
// control memory and measurement this way). In-flight computations from
// before the reset cannot repopulate the caches.
func (r *Runner) Reset() {
	r.suites.reset()
	r.runs.reset()
}

// execute runs a normalized Spec over its memoized scenario suite.
func (r *Runner) execute(ctx context.Context, ns Spec) (Record, error) {
	scs, err := r.Warm(ns.Workload, ns.Scale)
	if err != nil {
		return Record{}, err
	}
	return r.executeOn(ctx, ns, scs)
}

// executeOn runs a normalized Spec over the given scenarios on a fresh
// engine and assembles the Record.
func (r *Runner) executeOn(ctx context.Context, ns Spec, scs []suite.Scenario) (Record, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	w, err := suite.Lookup(ns.Workload)
	if err != nil {
		return Record{}, err
	}
	v, err := w.Variant(ns.Variant)
	if err != nil {
		return Record{}, err
	}
	newEngine, err := ns.engine()
	if err != nil {
		return Record{}, err
	}
	p := ns.Params
	if ns.Validate {
		p = p.Merged(nil) // copy before inserting the reserved param
		p[suite.ValidateParam] = 1
	}
	key := ns.render()
	start := time.Now() //c3ivet:ignore determinism HostElapsed is host wall-clock cost, reported beside the model artifact
	r.execs.Add(1)
	r.metrics.Counter(MetricExecutions, workloadLabels(ns.Workload)).Inc()
	var checksum, overhead uint64
	res, err := newEngine().Run(key, func(t *machine.Thread) {
		for i, sc := range scs {
			out := v.Run(t, sc, p)
			if i == 0 {
				checksum = out.Checksum
			} else {
				// Fold suite checksums order-sensitively (FNV-style mix) so
				// a multi-scenario record stays a stable fingerprint while a
				// single-scenario record keeps the scenario's own checksum.
				checksum = (checksum ^ out.Checksum) * 1099511628211
			}
			if out.OverheadBytes > overhead {
				overhead = out.OverheadBytes
			}
		}
	})
	r.metrics.Histogram(MetricExecSeconds, workloadLabels(ns.Workload), obs.DefLatencyBuckets).
		Observe(time.Since(start).Seconds()) //c3ivet:ignore determinism exec-latency metric is host-side observability
	if err != nil {
		return Record{}, fmt.Errorf("run: %s: %w", key, err)
	}
	return Record{
		Spec:          ns,
		Key:           key,
		ModelSeconds:  res.Seconds,
		PaperSeconds:  res.Seconds * w.Norm(scs),
		Checksum:      Checksum(checksum),
		OverheadBytes: overhead,
		Stats:         res.Stats,
		HostElapsed:   time.Since(start), //c3ivet:ignore determinism HostElapsed is explicitly host-dependent and excluded from the checksum
	}, nil
}

// --- Single-flight memoization ----------------------------------------------

// onceMap memoizes expensive computations by key and collapses concurrent
// calls for the same key into one execution. reset advances a generation so
// computations started before a reset cannot repopulate the post-reset maps.
// (Lifted from internal/experiments, which now consumes it through Runner.)
type onceMap[T any] struct {
	mu       sync.Mutex
	gen      int
	done     map[string]T
	inflight map[string]*onceCall[T]
}

type onceCall[T any] struct {
	ready chan struct{}
	val   T
	err   error
}

// initLocked lazily allocates the maps; callers hold mu.
func (m *onceMap[T]) initLocked() {
	if m.done == nil {
		m.done = map[string]T{}
	}
	if m.inflight == nil {
		m.inflight = map[string]*onceCall[T]{}
	}
}

func (m *onceMap[T]) do(key string, fn func() (T, error)) (T, error) {
	v, err, _, _ := m.doTracked(key, fn)
	return v, err
}

// doTracked is do with observability: shared reports whether the result came
// from the done map or from collapsing onto another caller's in-flight
// computation (i.e. fn did not run in this call), and wait is how long the
// caller blocked on that in-flight computation (zero for done-map hits and
// for the winner).
func (m *onceMap[T]) doTracked(key string, fn func() (T, error)) (val T, err error, shared bool, wait time.Duration) {
	m.mu.Lock()
	m.initLocked()
	if v, ok := m.done[key]; ok {
		m.mu.Unlock()
		return v, nil, true, 0
	}
	if c, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		start := time.Now() //c3ivet:ignore determinism single-flight wait time is host-side observability
		<-c.ready
		return c.val, c.err, true, time.Since(start) //c3ivet:ignore determinism single-flight wait time is host-side observability
	}
	c := &onceCall[T]{ready: make(chan struct{})}
	m.inflight[key] = c
	gen := m.gen
	m.mu.Unlock()

	c.val, c.err = fn()
	m.mu.Lock()
	// A reset during the computation dropped this call from inflight and
	// invalidated its result; only same-generation results are memoized.
	if m.gen == gen {
		if c.err == nil {
			m.done[key] = c.val
		}
		delete(m.inflight, key)
	}
	m.mu.Unlock()
	close(c.ready)
	return c.val, c.err, false, 0
}

func (m *onceMap[T]) reset() {
	m.mu.Lock()
	m.gen++
	m.done = map[string]T{}
	m.inflight = map[string]*onceCall[T]{}
	m.mu.Unlock()
}
