// Package router is the sharded, replicated front tier over c3iserve: an
// http.Handler speaking the same wire API as internal/serve (POST /v1/run,
// POST /v1/run/stream, GET /healthz, GET /metrics) that partitions each
// batch's Specs across a configured set of c3iserve shard URLs and streams
// the sub-batches from them concurrently. Toward the shards the router
// speaks only NDJSON (/v1/run/stream); its own /v1/run is the collected form
// of that one fan-out. Shards may be constrained to a workload set
// (partitioning suite *memory*, not just goroutine warmth); within a Spec's
// candidate shards the router picks by rendezvous hashing on the canonical
// Spec key, so replicas split a workload's key space stably — adding a shard
// moves only the keys the new shard wins, everything else keeps its home and
// its warm caches.
//
// The router owns shard health: periodic /healthz probes (and every routed
// request) feed a per-shard up/degraded/down state machine, the undelivered
// remainder of a sub-batch whose shard fails is re-partitioned onto the
// remaining live candidates (failover — safe because Specs are deterministic
// and shards deduplicate through their caches and the shared record store),
// and the whole tier is observable through router_shard_* metrics. A caller
// that hangs up is not a shard failure and is charged to no shard. Because
// the router serves the identical API, serve.Client — and therefore
// `c3ibench -remote` — cannot tell a router from a single server: the
// Records that come back are byte-identical either way.
package router

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/serve"
)

// Metric names the router publishes on its /metrics endpoint. The CI router
// smoke job greps MetricShardFailovers, so these are part of the observable
// API.
const (
	// MetricShardRequests counts sub-batch requests per shard, labeled
	// {shard=..., outcome="ok"|"error"}.
	MetricShardRequests = "router_shard_requests_total"
	// MetricShardFailovers counts sub-batches a shard should have served but
	// could not — either it failed the request in flight or it was already
	// down at routing time — labeled {shard=...} by the bypassed shard.
	MetricShardFailovers = "router_shard_failovers_total"
	// MetricShardUp gauges routability per shard: 1 while up or degraded,
	// 0 once the state machine declares it down.
	MetricShardUp = "router_shard_up"
	// MetricRequests counts finished router HTTP requests, labeled
	// {path=..., code=...} like the serving tier's serve_requests_total.
	MetricRequests = "router_requests_total"
	// MetricRequestSeconds is the router's per-endpoint latency histogram.
	MetricRequestSeconds = "router_request_seconds"
)

// Shard configures one backend c3iserve process.
type Shard struct {
	// URL is the shard's base URL ("http://host:port").
	URL string
	// Workloads constrains the shard to a set of workload names; empty means
	// the shard serves every workload. Constraining shards partitions suite
	// memory: only the shards a workload routes to ever generate (and hold)
	// its memoized scenario suites.
	Workloads []string
}

// Options configures a Router.
type Options struct {
	// Shards is the backend set; at least one, URLs unique.
	Shards []Shard
	// ProbeInterval spaces the health probes Start launches; <= 0 means 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe; <= 0 means 2s.
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive failures (probe or request) turn a
	// shard from degraded to down; < 1 means 3. The first failure always
	// degrades; any success resets to up.
	DownAfter int
	// ShardTimeout bounds each sub-batch request to a shard; 0 means none
	// (a cold paper-scale sub-batch legitimately runs for minutes).
	ShardTimeout time.Duration
	// HTTP overrides the transport every shard client uses (tests inject
	// httptest transports here). Nil means the default per-client behavior.
	HTTP *http.Client
	// Metrics receives every router_* series; nil means a fresh registry.
	Metrics *obs.Registry
}

// shard is one backend plus its health state.
type shard struct {
	cfg       Shard
	client    *serve.Client
	workloads map[string]bool // nil = serves everything

	mu    sync.Mutex
	fails int
	state State
}

// serves reports whether the shard is configured for the workload.
func (sh *shard) serves(workload string) bool {
	return sh.workloads == nil || sh.workloads[workload]
}

// Router fans Spec batches out over the shard set. Create with New, start
// the health probes with Start, and Close when done. Safe for concurrent
// use; it is an http.Handler.
type Router struct {
	shards       []*shard
	downAfter    int
	probeEvery   time.Duration
	probeTimeout time.Duration
	shardTimeout time.Duration
	metrics      *obs.Registry
	handler      http.Handler

	closeOnce sync.Once
	quit      chan struct{}
	wg        sync.WaitGroup
}

// New builds a Router over the configured shards. Probes do not run until
// Start; until the first probe (or request) touches a shard it is assumed
// up, so a router is routable the moment it is constructed.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	rt := &Router{
		downAfter:    opts.DownAfter,
		probeEvery:   opts.ProbeInterval,
		probeTimeout: opts.ProbeTimeout,
		shardTimeout: opts.ShardTimeout,
		metrics:      metrics,
		quit:         make(chan struct{}),
	}
	if rt.downAfter < 1 {
		rt.downAfter = 3
	}
	if rt.probeEvery <= 0 {
		rt.probeEvery = 2 * time.Second
	}
	if rt.probeTimeout <= 0 {
		rt.probeTimeout = 2 * time.Second
	}
	seen := map[string]bool{}
	for _, cfg := range opts.Shards {
		cfg.URL = strings.TrimRight(cfg.URL, "/")
		u, err := url.Parse(cfg.URL)
		if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("router: shard %q is not an http(s) base URL", cfg.URL)
		}
		if seen[cfg.URL] {
			return nil, fmt.Errorf("router: duplicate shard %q", cfg.URL)
		}
		seen[cfg.URL] = true
		sh := &shard{
			cfg: cfg,
			// One quick in-place retry, then the router's failover to a
			// replica IS the retry policy — a dead shard should cost
			// milliseconds, not a full client backoff ladder.
			client: &serve.Client{
				Addr:         cfg.URL,
				HTTP:         opts.HTTP,
				Timeout:      opts.ShardTimeout,
				Retries:      1,
				RetryBackoff: 50 * time.Millisecond,
				Metrics:      metrics,
			},
		}
		if len(cfg.Workloads) > 0 {
			sh.workloads = map[string]bool{}
			for _, w := range cfg.Workloads {
				sh.workloads[w] = true
			}
		}
		rt.shards = append(rt.shards, sh)
		metrics.Gauge(MetricShardUp, obs.Labels{"shard": cfg.URL}).Set(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(serve.RunPath, rt.handleRun)
	mux.HandleFunc(serve.StreamPath, rt.handleStream)
	mux.HandleFunc(serve.HealthPath, rt.handleHealth)
	mux.HandleFunc(serve.MetricsPath, rt.handleMetrics)
	rt.handler = serve.Instrument(mux, metrics, MetricRequests, MetricRequestSeconds, "")
	return rt, nil
}

// Metrics returns the router's registry (shard health, failovers, request
// series, plus the shard clients' attempt counters).
func (rt *Router) Metrics() *obs.Registry { return rt.metrics }

// ServeHTTP implements http.Handler: every endpoint runs inside the serving
// tier's request middleware (serve.Instrument) with the router_* metric
// names.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// Close stops the probe loop. It does not touch the shards — they are
// independent processes.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.quit) })
	rt.wg.Wait()
}

// --- Rendezvous partitioning ------------------------------------------------

// Rank orders candidate shard URLs for a canonical Spec key by rendezvous
// (highest-random-weight) hashing: each (shard, key) pair is scored
// independently, so removing a shard re-homes only the keys it was serving
// and adding one moves only the keys the newcomer wins. Ties break by URL so
// the order is total and deterministic. Exported for the stability tests —
// this is the routing function, not a lookalike.
func Rank(key string, shards []string) []string {
	out := append([]string(nil), shards...)
	scores := make(map[string]uint64, len(out))
	for _, s := range out {
		scores[s] = rendezvousScore(s, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if scores[out[i]] != scores[out[j]] {
			return scores[out[i]] > scores[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// rendezvousScore hashes one (shard, key) pair with FNV-1a 64; the zero byte
// separator keeps ("ab","c") and ("a","bc") from colliding by construction.
func rendezvousScore(shardURL, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shardURL))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// candidates returns the Spec's shard preference order: every shard
// configured for its workload, ranked by rendezvous score on the canonical
// Spec key.
func (rt *Router) candidates(spec run.Spec) []*shard {
	var urls []string
	byURL := make(map[string]*shard, len(rt.shards))
	for _, sh := range rt.shards {
		if sh.serves(spec.Workload) {
			urls = append(urls, sh.cfg.URL)
			byURL[sh.cfg.URL] = sh
		}
	}
	ranked := Rank(spec.Key(), urls)
	out := make([]*shard, len(ranked))
	for i, u := range ranked {
		out[i] = byURL[u]
	}
	return out
}

// assign picks the shard a Spec routes to this round: the best-ranked
// candidate that is not excluded and not down, falling back to the best
// non-excluded candidate of any state (a "down" verdict may be stale, and a
// failed desperation attempt only grows excluded — the loop still
// terminates). It returns nil when every candidate is excluded or none
// exist. preferred is the health-blind first choice; when the pick differs,
// the caller records a failover against preferred.
func (rt *Router) assign(spec run.Spec, excluded map[*shard]bool) (pick, preferred *shard) {
	var desperation *shard
	for _, sh := range rt.candidates(spec) {
		if excluded[sh] {
			continue
		}
		if preferred == nil {
			preferred = sh
		}
		if desperation == nil {
			desperation = sh
		}
		if sh.currentState() != StateDown {
			return sh, preferred
		}
	}
	return desperation, preferred
}

// --- Fan-out -----------------------------------------------------------------

// fanOut executes the batch over the shards and hands every Spec's event to
// emit exactly once, never concurrently, as the shards deliver them. Each
// round plans the pending Specs onto their best live candidates and streams
// every shard's sub-batch through Client.RunStream, remapping sub-batch
// indices onto the batch's. A shard that fails loses only its undelivered
// remainder, which the next round re-plans onto the remaining candidates:
// delivered events are final, since Specs are deterministic and a record is
// a record wherever it was computed. Specs left with no shard resolve as
// routing errors, so failed Specs never fail the batch.
//
// A caller that leaves ends the fan-out without charging any shard: a call
// cut short by the request context says nothing about the shard's health,
// so it feeds neither the state machine nor the failover counter.
func (rt *Router) fanOut(ctx context.Context, specs []run.Spec, emit func(serve.StreamEvent)) {
	var mu sync.Mutex // serializes emit, and guards excluded and refeed
	send := func(ev serve.StreamEvent) {
		mu.Lock()
		defer mu.Unlock()
		emit(ev)
	}
	pending := make([]int, len(specs))
	for i := range specs {
		pending[i] = i
	}
	excluded := map[*shard]bool{}
	for len(pending) > 0 && ctx.Err() == nil {
		var wg sync.WaitGroup
		var refeed []int
		for sh, idxs := range rt.plan(specs, pending, excluded, send) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub := make([]run.Spec, len(idxs))
				for j, i := range idxs {
					sub[j] = specs[i]
				}
				delivered := make([]bool, len(idxs))
				err := sh.client.RunStream(ctx, sub, func(ev serve.StreamEvent) {
					delivered[ev.Index] = true
					ev.Index = idxs[ev.Index]
					send(ev)
				})
				if ctx.Err() != nil {
					return // the caller left; not the shard's failure
				}
				rt.observeShard(sh, err == nil)
				if err == nil {
					return
				}
				rt.metrics.Counter(MetricShardFailovers, obs.Labels{"shard": sh.cfg.URL}).Inc()
				mu.Lock()
				defer mu.Unlock()
				excluded[sh] = true
				for j, i := range idxs {
					if !delivered[j] {
						refeed = append(refeed, i)
					}
				}
			}()
		}
		wg.Wait()
		sort.Ints(refeed)
		pending = refeed
	}
}

// plan partitions the pending Spec indices into per-shard groups. A Spec
// whose health-blind preferred shard is bypassed (down) counts a failover
// against that shard; a Spec with no remaining shard resolves now, as an
// error event through emit.
func (rt *Router) plan(specs []run.Spec, pending []int, excluded map[*shard]bool, emit func(serve.StreamEvent)) map[*shard][]int {
	groups := map[*shard][]int{}
	for _, i := range pending {
		pick, preferred := rt.assign(specs[i], excluded)
		if pick == nil {
			emit(serve.StreamEvent{Index: i, Error: fmt.Sprintf("router: no live shard serves workload %q (%d shards excluded)",
				specs[i].Workload, len(excluded))})
			continue
		}
		if pick != preferred {
			rt.metrics.Counter(MetricShardFailovers, obs.Labels{"shard": preferred.cfg.URL}).Inc()
		}
		groups[pick] = append(groups[pick], i)
	}
	return groups
}

// observeShard feeds one request outcome into the shard's state machine and
// request counter.
func (rt *Router) observeShard(sh *shard, ok bool) {
	outcome := "ok"
	if !ok {
		outcome = "error"
	}
	rt.metrics.Counter(MetricShardRequests, obs.Labels{"shard": sh.cfg.URL, "outcome": outcome}).Inc()
	rt.observe(sh, ok)
}

// handleRun answers POST /v1/run with the same positional contract as a
// single c3iserve — the collected form of the fan-out's stream, so the
// router is transparent to serve.Client.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	specs, ok := serve.DecodeBatch(w, r)
	if !ok {
		return
	}
	resp := serve.BatchResponse{Records: make([]*run.Record, len(specs)), Errors: make([]string, len(specs))}
	rt.fanOut(r.Context(), specs, func(ev serve.StreamEvent) {
		resp.Records[ev.Index], resp.Errors[ev.Index] = ev.Record, ev.Error
	})
	serve.WriteJSON(w, http.StatusOK, resp)
}

// handleStream answers POST /v1/run/stream with the fan-out's events as one
// merged NDJSON stream, each written (and flushed) the moment its shard
// delivers it, however many shards are computing.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	specs, ok := serve.DecodeBatch(w, r)
	if !ok {
		return
	}
	write := serve.StartStream(w)
	gone := false
	rt.fanOut(r.Context(), specs, func(ev serve.StreamEvent) {
		// Once a write fails the client is gone; the remaining events are
		// dropped while the shards finish and warm their caches.
		gone = gone || !write(ev)
	})
}

// handleMetrics answers GET /metrics with the Prometheus text exposition of
// every router_* and serve_client_* series.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.WritePrometheus(w)
}

// probeCtx derives the context a health probe runs under, bounded by
// ProbeTimeout.
func (rt *Router) probeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rt.probeTimeout)
}
