package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/router"
	"repro/internal/run"
	"repro/internal/serve"
)

// The serve-mix traffic: an open loop at a fixed rate against a router over
// two shards, half batch and half stream requests, batch sizes drawn from
// mixBatchSizes. A request either repeats keys the shards already hold
// (answered from the record cache) or, with probability mixFresh, asks for
// keys never seen before (engine runs plus store writes). Drawing the
// temperature per request rather than per Spec keeps the two kinds apart:
// cached reads set the p50 and fresh executions the p99.
const (
	mixRate         = 40.0 // requests per second
	mixStreamShare  = 0.5
	mixFresh        = 0.2
	mixCachedPerCmb = 4  // cached keys per workload×variant
	mixShards       = 2  // c3iserve shards behind the router
	mixSetups       = 5  // stack start-ups timed per run; setup_s is their median
	mixQueueDepth   = 32 // per-workload pool queue: two connections × 8 Specs never fill it
	mixTimeout      = 30 * time.Second
)

var mixBatchSizes = []int{1, 4, 8}

// mixScales are the small scales serve-mix Specs run at on one Tera MTA
// processor; Route Optimization is left out because a single query over its
// full grid costs seconds.
var mixScales = map[string]float64{
	experiments.TA: 0.02,
	experiments.TM: 0.05,
	experiments.PT: 0.02,
	experiments.HT: 0.02,
}

// seqParam makes a Spec's key unique without changing what it computes:
// solvers ignore parameters they do not declare.
const seqParam = "bench_seq"

// requestIDHeader carries the benchmark's request ID from the client to the
// router and from the router to the shards, so their spans link up.
const requestIDHeader = "X-Perfbench-Request"

// combo is one workload×variant serve-mix draws Specs from.
type combo struct{ workload, variant string }

// mixCombos lists every workload×variant in registry order.
func mixCombos() ([]combo, error) {
	var out []combo
	for _, w := range suite.All() {
		if _, ok := mixScales[w.Name]; !ok {
			continue
		}
		for _, v := range w.Variants {
			out = append(out, combo{w.Name, v.Name})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve-mix: no registered workloads")
	}
	return out, nil
}

// mixSpec builds the Spec for a combo with its key-making sequence number.
// Specs run charge-only, like the experiment tables' cells: a validated
// Terrain Masking run costs about 300 ms of host time, a charged one a few.
func mixSpec(c combo, seq int) run.Spec {
	return run.Spec{
		Workload: c.workload, Variant: c.variant, Platform: "tera", Procs: 1,
		Scale: mixScales[c.workload], Params: suite.Params{seqParam: seq},
	}
}

// mixRequest is one scheduled request.
type mixRequest struct {
	due    time.Duration // offset from the start of the schedule
	stream bool
	specs  []run.Spec
	combos []combo
}

// schedule draws the whole request schedule from one seeded RNG. Fresh keys
// number upward from freshBase, so two schedules with different bases never
// share a fresh key.
func schedule(seed int64, d time.Duration, combos []combo, freshBase int) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	n := int(mixRate * d.Seconds())
	reqs := make([]mixRequest, n)
	fresh := freshBase
	for i := range reqs {
		r := &reqs[i]
		r.due = time.Duration(float64(i) / mixRate * float64(time.Second))
		r.stream = rng.Float64() < mixStreamShare
		size := mixBatchSizes[rng.Intn(len(mixBatchSizes))]
		isFresh := rng.Float64() < mixFresh
		for j := 0; j < size; j++ {
			c := combos[rng.Intn(len(combos))]
			seq := 1 + rng.Intn(mixCachedPerCmb)
			if isFresh {
				fresh++
				seq = fresh
			}
			r.specs = append(r.specs, mixSpec(c, seq))
			r.combos = append(r.combos, c)
		}
	}
	return reqs
}

// --- the serving stack ------------------------------------------------------

// reqIDKey is the context key of the benchmark's request ID.
type reqIDKey struct{}

// idTransport copies the request ID from the request context into a header.
// The client uses it toward the router, and the router's shard clients use
// it toward the shards (through router.Options.HTTP).
type idTransport struct{ base http.RoundTripper }

// RoundTrip implements http.RoundTripper.
func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(string); ok {
		req = req.Clone(req.Context()) // a RoundTripper must not modify its request
		req.Header.Set(requestIDHeader, id)
	}
	return t.base.RoundTrip(req)
}

// spanHandler wraps a tier's http.Handler in a span per request, while a
// tracer is attached. It also puts the request ID into the context, which
// the router's shard clients send on.
type spanHandler struct {
	name string
	h    http.Handler
	tr   *atomic.Pointer[tracer]
}

// ServeHTTP implements http.Handler.
func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	id := r.Header.Get(requestIDHeader)
	if tr == nil || id == "" {
		s.h.ServeHTTP(w, r)
		return
	}
	kind := "batch"
	if r.URL.Path == serve.StreamPath {
		kind = "stream"
	}
	sp := tr.begin(s.name, kind, id, -1)
	s.h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
	tr.end(sp)
}

// mixStack is a router over two shards sharing one record store, each tier
// on its own localhost listener.
type mixStack struct {
	dir     string
	runners []*run.Runner
	shards  []*serve.Server
	router  *router.Router
	servers []*http.Server
	url     string
	tr      atomic.Pointer[tracer]
	serveWG sync.WaitGroup
	warm    time.Duration // suite generation, within set-up
}

// listen serves h on a fresh localhost port and returns its base URL.
func (st *mixStack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serveWG.Add(1)
	go func() {
		defer st.serveWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack brings the stack up and warms every shard's scenario suites.
func startStack(dir string) (*mixStack, error) {
	store, err := run.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	st := &mixStack{dir: dir}
	var shardCfg []router.Shard
	for i := 0; i < mixShards; i++ {
		r := run.NewRunner(runtime.NumCPU())
		r.SetStore(store)
		srv := serve.New(r, serve.Options{QueueDepth: mixQueueDepth, Store: store})
		st.runners = append(st.runners, r)
		st.shards = append(st.shards, srv)
		u, err := st.listen(spanHandler{name: "shard", h: srv, tr: &st.tr})
		if err != nil {
			st.stop()
			return nil, err
		}
		shardCfg = append(shardCfg, router.Shard{URL: u})
	}
	rt, err := router.New(router.Options{
		Shards: shardCfg,
		HTTP:   &http.Client{Transport: idTransport{base: &http.Transport{MaxIdleConnsPerHost: 16}}},
	})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.router = rt
	rt.Start()
	if st.url, err = st.listen(spanHandler{name: "router", h: rt, tr: &st.tr}); err != nil {
		st.stop()
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(st.runners))
	for i, r := range st.runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range sortedKeys(mixScales) {
				if _, err := r.Warm(w, mixScales[w]); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	st.warm = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// stop shuts every tier down, waits for their goroutines, and removes the
// record store.
func (st *mixStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Shutdown(ctx) // a request still open at exit has already been counted as failed
	}
	st.serveWG.Wait()
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.shards {
		s.Close()
	}
	_ = os.RemoveAll(st.dir) // scratch data of this run only
}

// counters sums a run_* or serve_* counter over the shards.
func (st *mixStack) counters(name string) int64 {
	var n int64
	for _, r := range st.runners {
		n += counterSum(r.Metrics().Snapshot(), name)
	}
	return n
}

// waitSeconds sums the single-flight wait histograms over the shards.
func (st *mixStack) waitSeconds() float64 {
	var n float64
	for _, r := range st.runners {
		n += histogramSum(r.Metrics().Snapshot(), run.MetricWaitSeconds)
	}
	return n
}

// references computes, on the first shard's Runner, the Record every Spec
// of each combo must reproduce (apart from its key).
func (st *mixStack) references(combos []combo) (map[combo]run.Record, error) {
	refs := map[combo]run.Record{}
	for _, c := range combos {
		spec := mixSpec(c, 0)
		spec.Params = nil
		rec, err := st.runners[0].Execute(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		refs[c] = rec
	}
	return refs, nil
}

// prime sends every cached key through the router once, so the shard each
// one routes to holds it in its record cache, and checks the Records.
func (st *mixStack) prime(combos []combo, refs map[combo]run.Record) error {
	cl := &serve.Client{Addr: st.url, Retries: -1}
	for _, c := range combos {
		specs := make([]run.Spec, mixCachedPerCmb)
		for j := range specs {
			specs[j] = mixSpec(c, j+1)
		}
		br, err := cl.RunBatch(context.Background(), specs)
		if err != nil {
			return fmt.Errorf("serve-mix: priming %s/%s: %w", c.workload, c.variant, err)
		}
		for j, rec := range br.Records {
			if !matches(rec, specs[j], refs[c]) {
				return fmt.Errorf("serve-mix: priming %s: record differs from the reference", specs[j].Key())
			}
		}
	}
	return nil
}

// matches reports whether a returned Record is the reference's result for
// the Spec that asked for it.
func matches(rec *run.Record, spec run.Spec, ref run.Record) bool {
	return rec != nil && rec.Key == spec.Key() &&
		rec.ModelSeconds == ref.ModelSeconds && rec.PaperSeconds == ref.PaperSeconds &&
		rec.Checksum == ref.Checksum && rec.OverheadBytes == ref.OverheadBytes &&
		reflect.DeepEqual(rec.Stats, ref.Stats)
}

// --- driving traffic ---------------------------------------------------------

// mixResult is one request's outcome, offsets measured from the schedule's
// start.
type mixResult struct {
	stream     bool
	sent, done time.Duration
	first      time.Duration // first stream event
	failed     bool
	fresh      []run.Record // Records of fresh keys, for the engine counters
}

// drive sends the schedule open-loop over at most nproc connections and
// checks every Record. A request is timed from when it was due, so one
// that waits for a free connection carries the wait.
func drive(url string, reqs []mixRequest, refs map[combo]run.Record, pass string, tr *tracer) []mixResult {
	conns := runtime.NumCPU()
	cl := &serve.Client{
		Addr:    url,
		HTTP:    &http.Client{Transport: idTransport{base: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}},
		Retries: -1, // a refusal is a failure here, not something to retry
	}
	results := make([]mixResult, len(reqs))
	next := make(chan int)
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				time.Sleep(time.Until(origin.Add(reqs[i].due)))
				results[i] = send(cl, reqs[i], refs, fmt.Sprintf("%s-%d", pass, i), origin, tr)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// send issues one request and checks what comes back. A 429, a transport
// error, a per-Spec error and a wrong Record all fail the request.
func send(cl *serve.Client, req mixRequest, refs map[combo]run.Record, id string, origin time.Time, tr *tracer) mixResult {
	res := mixResult{stream: req.stream, sent: time.Since(origin)}
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), reqIDKey{}, id), mixTimeout)
	defer cancel()
	kind := "batch"
	if req.stream {
		kind = "stream"
	}
	sp := tr.begin("request", kind, id, -1)
	got := make([]*run.Record, len(req.specs))
	var err error
	if req.stream {
		err = cl.RunStream(ctx, req.specs, func(ev serve.StreamEvent) {
			if res.first == 0 {
				res.first = time.Since(origin)
			}
			got[ev.Index] = ev.Record // nil for an error event
		})
	} else {
		var br serve.BatchResponse
		if br, err = cl.RunBatch(ctx, req.specs); err == nil {
			copy(got, br.Records)
		}
	}
	res.done = time.Since(origin)
	tr.end(sp)
	if err != nil {
		res.failed = true
		fmt.Printf("serve-mix: request %s: %v\n", id, err)
		return res
	}
	for i, rec := range got {
		if !matches(rec, req.specs[i], refs[req.combos[i]]) {
			res.failed = true
			fmt.Printf("serve-mix: request %s: spec %d (%s): wrong or missing record\n", id, i, req.specs[i].Key())
			continue
		}
		if req.specs[i].Params[seqParam] > mixCachedPerCmb {
			res.fresh = append(res.fresh, *rec)
		}
	}
	return res
}

// latencies are a pass's successful requests, timed from their due times.
type latencies struct {
	all, batch, stream, first, late []float64
	last                            time.Duration // the last completion
}

func collect(reqs []mixRequest, results []mixResult) latencies {
	var l latencies
	for i, r := range results {
		if r.failed {
			continue
		}
		lat := ms(r.done - reqs[i].due)
		l.all = append(l.all, lat)
		if r.stream {
			l.stream = append(l.stream, lat)
			l.first = append(l.first, ms(r.first-reqs[i].due))
		} else {
			l.batch = append(l.batch, lat)
		}
		l.late = append(l.late, ms(r.sent-reqs[i].due))
		l.last = max(l.last, r.done)
	}
	return l
}

// tally counts a pass's requests into the outcome.
func tally(out *outcome, results []mixResult) {
	for _, r := range results {
		out.attempted++
		if r.failed {
			out.failed++
		}
	}
}

// runServeMix measures serve-mix. Set-up starts the stack mixSetups times
// (timing each, keeping the last), computes the reference Records and
// primes the cached keys; the measured window is the open-loop schedule.
// A traced run drives an untraced half, then a traced half with fresh keys
// of its own.
func runServeMix(o options) (outcome, error) {
	combos, err := mixCombos()
	if err != nil {
		return outcome{}, err
	}
	mem := startMemPeak()
	var st *mixStack
	var setups, warms []float64
	for i := 0; i < mixSetups; i++ {
		if st != nil {
			st.stop()
			runtime.GC() // drop the stopped stack's suites before timing the next
		}
		start := time.Now()
		st, err = startStack(outPath(fmt.Sprintf("store-%d-%d", os.Getpid(), i)))
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, secs(time.Since(start)))
		warms = append(warms, secs(st.warm))
	}
	defer st.stop()
	refs, err := st.references(combos)
	if err != nil {
		return outcome{}, err
	}
	if err := st.prime(combos, refs); err != nil {
		return outcome{}, err
	}

	alloc0, mallocs0, gcs0 := goCounters()
	out := outcome{values: map[string]float64{}}
	v := out.values
	counts := map[string]int{}
	d := o.seconds
	if o.trace {
		d /= 2
	}
	reqs := schedule(o.seed, d, combos, 1000)
	fmt.Printf("serve-mix: seed %d, %d requests at %g/s over %d connections\n", o.seed, len(reqs), mixRate, runtime.NumCPU())
	results := drive(st.url, reqs, refs, "plain", nil)
	tally(&out, results)
	plain := collect(reqs, results)
	v["mem_peak_mb"] = mem.mb()
	if !o.trace {
		v["wall_s"] = secs(plain.last)
		v["setup_s"], counts["setup_s"] = median(setups), len(setups)
		v["p50_ms"], counts["p50_ms"] = percentile(plain.all, 0.50), len(plain.all)
		v["p99_ms"], counts["p99_ms"] = percentile(plain.all, 0.99), len(plain.all)
		summary("serve-mix", counts, v)
		return out, nil
	}

	// The traced half: the same traffic shape, with fresh keys of its own.
	tr := newTracer()
	st.tr.Store(tr)
	routerCounter := func(name string) int64 { return counterSum(st.router.Metrics().Snapshot(), name) }
	execs0, hits0 := st.counters(run.MetricExecutions), st.counters(run.MetricCacheHits)
	rejected0, storeErrs0 := st.counters(serve.MetricRejected), st.counters(run.MetricStoreErrors)
	wait0 := st.waitSeconds()
	sub0, failover0 := routerCounter(router.MetricShardRequests), routerCounter(router.MetricShardFailovers)
	treqs := schedule(o.seed, d, combos, 1_000_000)
	tresults := drive(st.url, treqs, refs, "traced", tr)
	st.tr.Store(nil)
	tally(&out, tresults)
	traced := collect(treqs, tresults)

	spans := tr.snapshot()
	linkByRequest(spans, map[string]string{"router": "request", "shard": "router"})
	self := selfTimes(spans)
	var shardBatch, shardStream, routerSelf, clientSelf []float64
	for i, s := range spans {
		switch {
		case s.Name == "shard" && s.Kind == "batch":
			shardBatch = append(shardBatch, ms(s.dur()))
		case s.Name == "shard":
			shardStream = append(shardStream, ms(s.dur()))
		case s.Name == "router":
			routerSelf = append(routerSelf, ms(self[i]))
		case s.Name == "request":
			clientSelf = append(clientSelf, ms(self[i]))
		}
	}
	v["serve.batch_p50_ms"], counts["serve.batch_p50_ms"] = median(shardBatch), len(shardBatch)
	v["serve.stream_p50_ms"], counts["serve.stream_p50_ms"] = median(shardStream), len(shardStream)
	v["router.self_p50_ms"], counts["router.self_p50_ms"] = median(routerSelf), len(routerSelf)
	v["client.self_p50_ms"], counts["client.self_p50_ms"] = median(clientSelf), len(clientSelf)
	v["serve.rejected"] = float64(st.counters(serve.MetricRejected) - rejected0)
	v["router.sub_batches"] = float64(routerCounter(router.MetricShardRequests) - sub0)
	v["router.failovers"] = float64(routerCounter(router.MetricShardFailovers) - failover0)

	var specs int
	for _, r := range treqs {
		specs += len(r.specs)
	}
	hits := st.counters(run.MetricCacheHits) - hits0
	v["run.executions"] = float64(st.counters(run.MetricExecutions) - execs0)
	v["run.cache_hits"] = float64(hits)
	v["run.cache_hit_ratio"] = ratio(float64(hits), float64(specs))
	v["run.store_errors"] = float64(st.counters(run.MetricStoreErrors) - storeErrs0)
	v["run.wait_s"] = st.waitSeconds() - wait0
	v["suite.generate_s"], counts["suite.generate_s"] = median(warms), len(warms)
	freshStats(v, tresults)

	v["client.batch_p50_ms"], counts["client.batch_p50_ms"] = percentile(plain.batch, 0.50), len(plain.batch)
	v["client.batch_p99_ms"], counts["client.batch_p99_ms"] = percentile(plain.batch, 0.99), len(plain.batch)
	v["client.stream_p50_ms"], counts["client.stream_p50_ms"] = percentile(plain.stream, 0.50), len(plain.stream)
	v["client.stream_p99_ms"], counts["client.stream_p99_ms"] = percentile(plain.stream, 0.99), len(plain.stream)
	v["client.stream_first_p50_ms"], counts["client.stream_first_p50_ms"] = percentile(plain.first, 0.50), len(plain.first)
	v["gen.late_p99_ms"], counts["gen.late_p99_ms"] = percentile(plain.late, 0.99), len(plain.late)
	v["gen.requests"] = float64(len(reqs))
	v["trace.overhead_ratio"] = ratio(median(traced.all), median(plain.all))
	addGoDeltas(v, alloc0, mallocs0, gcs0)
	ref, err := loadDigests()
	if err != nil {
		return out, err
	}
	runProbes(v, ref.SimProbeProcs)
	v["fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	zeroMissing(v, perLayer)
	if err := tr.write(outPath(fmt.Sprintf("trace-serve-mix-%d.json", o.seed))); err != nil {
		return out, err
	}
	summary("serve-mix", counts, v)
	return out, nil
}

// freshStats stores the engine counters of the fresh keys a pass executed,
// and the host time those executions took.
func freshStats(v map[string]float64, results []mixResult) {
	var st machine.Stats
	var exec time.Duration
	var maxLive []float64
	for _, r := range results {
		for _, rec := range r.fresh {
			exec += rec.HostElapsed
			addStats(&st, rec.Stats)
			maxLive = append(maxLive, float64(rec.Stats.MaxLive))
		}
	}
	v["run.exec_s"] = secs(exec)
	statValues(v, st, exec)
	v["machine.max_live"] = median(maxLive)
}
