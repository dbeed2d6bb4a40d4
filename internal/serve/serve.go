// Package serve exposes the run API over HTTP/JSON — the serving layer the
// Spec→Record separation was built for. A POST to /v1/run carries a batch of
// run.Spec values and returns positional run.Records with per-spec errors,
// executed through one shared run.Runner. Both run endpoints share one
// execution path: every Spec resolves as one StreamEvent, which
// /v1/run/stream writes as NDJSON the moment it completes and /v1/run
// collects into one BatchResponse. /healthz reports liveness plus the
// runner's execution and store-failure counters, which is how a caller (or
// the CI smoke job) asserts that a repeated batch was served from cache
// rather than recomputed.
//
// Specs are dispatched with per-workload shard affinity: each workload gets
// its own bounded worker pool, so the goroutines executing, say, Terrain
// Masking Specs are the ones whose runner already holds that workload's
// memoized scenario suites warm, and a batch mixing workloads fans out
// across pools instead of serializing behind one queue. The Runner's caches
// are process-wide either way — affinity is a throughput and warmth
// property, not a correctness one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/obs"
	"repro/internal/run"
)

// The server's endpoints. PprofPrefix is only mounted with Options.Pprof.
const (
	RunPath     = "/v1/run"
	StreamPath  = "/v1/run/stream"
	HealthPath  = "/healthz"
	MetricsPath = "/metrics"
	PprofPrefix = "/debug/pprof/"
)

// Metric names the serving tier publishes (alongside the Runner's run_*
// family) in the registry GET /metrics renders. The CI smoke job greps
// MetricRequests, so these are part of the observable API.
const (
	// MetricRequests counts finished HTTP requests, labeled
	// {path=..., code=...} with code a status class ("2xx", "4xx", "5xx").
	MetricRequests = "serve_requests_total"
	// MetricRequestSeconds is the per-endpoint request latency histogram.
	MetricRequestSeconds = "serve_request_seconds"
	// MetricInflight gauges requests currently being served, per endpoint.
	MetricInflight = "serve_inflight"
	// MetricPoolWorkers gauges each started workload pool's worker count.
	MetricPoolWorkers = "serve_pool_workers"
	// MetricPoolQueueDepth gauges Specs handed to a workload pool but not
	// yet picked up by a worker — sustained nonzero depth means the pool is
	// saturated.
	MetricPoolQueueDepth = "serve_pool_queue_depth"
	// MetricRejected counts batches turned away with 429 because a workload
	// pool's bounded queue was full, labeled {workload=...} by the workload
	// whose queue rejected the Spec. Admission control, observable.
	MetricRejected = "serve_rejected_total"
)

// MaxBatchBytes bounds a request body; a batch of Specs is small, so
// anything bigger is a mistake or abuse, not a workload.
const MaxBatchBytes = 8 << 20

// BatchResponse answers one Spec batch positionally: Records[i] and
// Errors[i] describe the i-th submitted Spec, and exactly one of them is set
// (a failed Spec has a null record and a non-empty error; a successful one
// the reverse). One bad Spec never fails its batch.
type BatchResponse struct {
	Records []*run.Record `json:"records"`
	Errors  []string      `json:"errors"`
}

// ErrorResponse is the body of a non-200 answer. For a 400 caused by
// per-element decode failures, Errors is positional over the submitted batch
// (empty strings for the elements that were fine).
type ErrorResponse struct {
	Error  string   `json:"error"`
	Errors []string `json:"errors,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status string `json:"status"`
	// Executions is the runner's engine-run counter: unchanged across a
	// repeated batch means the batch was served from cache or store.
	Executions int64 `json:"executions"`
	// StoreErrors counts failed record-store writes (persistence degraded).
	StoreErrors int64 `json:"store_errors"`
	// StoreRecords is the disk store's current record count, -1 when the
	// server runs without a persistent store. Refreshed per request under
	// the server's read lock.
	StoreRecords int `json:"store_records"`
	// Pools maps each workload whose worker pool has started to its worker
	// count — the pool shape the CI smoke job asserts.
	Pools map[string]int `json:"pools"`
	// Metrics is the full metrics snapshot (the JSON twin of GET /metrics):
	// the runner's per-workload execution/cache/store series plus the
	// serving tier's request series.
	Metrics obs.Snapshot `json:"metrics"`
}

// Options configures a Server.
type Options struct {
	// WorkersPerWorkload bounds each workload's executor pool; < 1 means
	// GOMAXPROCS.
	WorkersPerWorkload int
	// QueueDepth bounds how many Specs can wait in each workload pool's
	// queue beyond the ones workers already hold; < 1 means 4× the worker
	// count. A Spec arriving at a full queue is rejected with HTTP 429 and a
	// Retry-After header (admission control) instead of blocking the handler
	// goroutine — the client's retry/backoff (or the router's failover to a
	// replica) resolves the overload, not a pile of parked handlers.
	QueueDepth int
	// Store, when non-nil, is reported in /healthz (record counts). The
	// store must already be attached to the Runner via SetStore; the server
	// never writes it directly.
	Store *run.DiskStore
	// Pprof mounts net/http/pprof under /debug/pprof/ — CPU, heap, goroutine
	// and mutex profiles of the live serving process. Off by default: the
	// profile endpoints can observably stall a loaded process, so exposing
	// them is an operator's explicit choice (`c3iserve -pprof`).
	Pprof bool
	// Slowdown injects an artificial delay into every run-API request
	// (/v1/run and /v1/run/stream; health and metrics stay fast) — fault
	// injection for validating latency SLO tooling: a `c3iserve -slowdown
	// 250ms` server must fail the serve_latency benchgate family, which is
	// how the CI load job proves the gate actually gates. Zero in production.
	Slowdown time.Duration
}

// Server is an http.Handler serving the run API. Create with New; after the
// HTTP server has been shut down (drained), call Close to stop the worker
// pools.
type Server struct {
	runner   *run.Runner
	workers  int
	queue    int
	slowdown time.Duration
	metrics  *obs.Registry
	handler  http.Handler

	mu     sync.RWMutex
	store  *run.DiskStore
	pools  map[string]chan task
	closed bool
	quit   chan struct{}
	wg     sync.WaitGroup
}

// task is one admitted Spec, handed to its workload pool. Whoever takes it
// from the queue — a worker that runs it, or Close abandoning it — sends its
// one event onto the batch's channel, which holds the whole batch so the
// send never blocks.
type task struct {
	ctx    context.Context
	index  int
	spec   run.Spec
	events chan<- StreamEvent
}

// New builds a Server executing batches through runner. The server's request
// metrics land in the runner's registry, so GET /metrics (and the /healthz
// snapshot) carries both the serving tier's serve_* series and the run API's
// run_* series from one source of truth.
func New(runner *run.Runner, opts Options) *Server {
	workers := opts.WorkersPerWorkload
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := opts.QueueDepth
	if queue < 1 {
		queue = 4 * workers
	}
	s := &Server{
		runner:   runner,
		workers:  workers,
		queue:    queue,
		slowdown: opts.Slowdown,
		metrics:  runner.Metrics(),
		store:    opts.Store,
		pools:    map[string]chan task{},
		quit:     make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(RunPath, s.handleRun)
	mux.HandleFunc(StreamPath, s.handleStream)
	mux.HandleFunc(HealthPath, s.handleHealth)
	mux.HandleFunc(MetricsPath, s.handleMetrics)
	if opts.Pprof {
		mux.HandleFunc(PprofPrefix, pprof.Index)
		mux.HandleFunc(PprofPrefix+"cmdline", pprof.Cmdline)
		mux.HandleFunc(PprofPrefix+"profile", pprof.Profile)
		mux.HandleFunc(PprofPrefix+"symbol", pprof.Symbol)
		mux.HandleFunc(PprofPrefix+"trace", pprof.Trace)
	}
	s.handler = Instrument(mux, s.metrics, MetricRequests, MetricRequestSeconds, MetricInflight, PprofPrefix)
	return s
}

// ServeHTTP implements http.Handler: every endpoint runs inside the request
// middleware (Instrument) with the serve_* metric names.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.slowdown > 0 && (r.URL.Path == RunPath || r.URL.Path == StreamPath) {
		time.Sleep(s.slowdown) // injected fault; see Options.Slowdown
	}
	s.handler.ServeHTTP(w, r)
}

// Close stops every workload pool. Close never closes the task channels
// themselves — a handler still dispatching past a drain deadline must get a
// per-spec "shut down" error, not a send-on-closed-channel panic — it
// signals a quit channel every worker selects on, and answers every task
// still queued with a shut-down event, so each admitted Spec still gets its
// one event. Workers finish the task they hold (the simulation is not
// preemptible) and exit; Close returns once they have. Safe to call more
// than once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
		for workload, ch := range s.pools {
			depth := s.metrics.Gauge(MetricPoolQueueDepth, obs.Labels{"workload": workload})
		sweep:
			for {
				select {
				case t := <-ch:
					depth.Dec()
					t.events <- StreamEvent{Index: t.index, Error: errShutDown.Error()}
				default:
					break sweep
				}
			}
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// The dispatch failures: the server is closed, or admission control turned
// the Spec away because its workload pool's bounded queue had no room.
var (
	errShutDown  = errors.New("serve: server is shut down")
	errQueueFull = errors.New("serve: workload queue is full")
)

// dispatch hands one validated Spec to its workload pool without ever
// blocking: the pool's bounded queue either has room now or the Spec is
// rejected (errQueueFull) for the caller to turn into a 429. A pool's
// workers start on first use. The queue is only sent to under the server
// lock, so no task can land behind Close's sweep of the queues.
func (s *Server) dispatch(t task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShutDown
	}
	workload := t.spec.Workload
	labels := obs.Labels{"workload": workload}
	// The queue-depth gauge spans the window a Spec sits in the bounded
	// queue before a worker picks it up: sustained nonzero depth on /metrics
	// means this pool is saturated, and depth at capacity is what turns into
	// 429 rejections.
	depth := s.metrics.Gauge(MetricPoolQueueDepth, labels)
	ch, ok := s.pools[workload]
	if !ok {
		ch = make(chan task, s.queue)
		s.pools[workload] = ch
		s.metrics.Gauge(MetricPoolWorkers, labels).Set(int64(s.workers))
		for i := 0; i < s.workers; i++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for {
					select {
					case <-s.quit:
						return
					case t := <-ch:
						depth.Dec()
						rec, err := s.runner.Run(t.ctx, t.spec)
						ev := StreamEvent{Index: t.index, Record: &rec}
						if err != nil {
							ev = StreamEvent{Index: t.index, Error: err.Error()}
						}
						t.events <- ev
					}
				}
			}()
		}
	}
	depth.Inc()
	select {
	case ch <- t:
		return nil
	default:
		depth.Dec()
		s.metrics.Counter(MetricRejected, labels).Inc()
		return errQueueFull
	}
}

// admit is the one admission path both run endpoints share. It decodes the
// batch and dispatches every Spec before the response's first byte, so a
// full workload queue still answers a clean 429 with Retry-After — the
// contract the client's backoff and the router's failover are written
// against. Each Spec then resolves as exactly one event on the returned
// channel: its Record or error from a worker, or an immediate per-spec error
// (unknown workload, server shut down). The channel holds the whole batch,
// so no sender blocks even after the handler has returned. ok=false means
// the response has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (events <-chan StreamEvent, n int, ok bool) {
	specs, ok := DecodeBatch(w, r)
	if !ok {
		return nil, 0, false
	}
	ch := make(chan StreamEvent, len(specs))
	for i, spec := range specs {
		// Validate the workload before pooling: unknown workloads answer as
		// per-spec errors and never spawn a pool.
		if _, err := suite.Lookup(spec.Workload); err != nil {
			ch <- StreamEvent{Index: i, Error: err.Error()}
			continue
		}
		switch err := s.dispatch(task{ctx: r.Context(), index: i, spec: spec, events: ch}); {
		case errors.Is(err, errQueueFull):
			// Reject the whole batch rather than block the handler on a
			// saturated pool. Specs dispatched above ride the request
			// context, which cancels when this handler returns — a rejected
			// batch abandons its queued work instead of loading the pool.
			w.Header().Set("Retry-After", "1")
			WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Error: fmt.Sprintf("workload %q pool queue is full (spec %d); retry later", spec.Workload, i),
			})
			return nil, 0, false
		case err != nil:
			ch <- StreamEvent{Index: i, Error: err.Error()}
		}
	}
	return ch, len(specs), true
}

// DecodeBatch reads and decodes the Spec batch POSTed to /v1/run or
// /v1/run/stream — shared by the serving tier and the router, so both speak
// exactly the same wire dialect (method check, size bound, two-stage decode
// with positional element errors). On any failure it has already written the
// error response and reports ok=false.
func DecodeBatch(w http.ResponseWriter, r *http.Request) ([]run.Spec, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST a JSON array of run Specs"})
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBatchBytes+1))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("reading body: %v", err)})
		return nil, false
	}
	if len(body) > MaxBatchBytes {
		WriteJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("batch exceeds %d bytes", MaxBatchBytes)})
		return nil, false
	}
	// Decode the batch in two stages so one malformed element reports its
	// index instead of poisoning the whole body with a positionless error.
	var raw []json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		WriteJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("batch must be a JSON array of run Specs: %v", err)})
		return nil, false
	}
	if len(raw) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty batch"})
		return nil, false
	}
	specs := make([]run.Spec, len(raw))
	decodeErrs := make([]string, len(raw))
	bad := false
	for i, msg := range raw {
		if err := json.Unmarshal(msg, &specs[i]); err != nil {
			decodeErrs[i] = fmt.Sprintf("spec %d: %v", i, err)
			bad = true
		}
	}
	if bad {
		WriteJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: "malformed specs in batch", Errors: decodeErrs})
		return nil, false
	}
	return specs, true
}

// handleRun answers POST /v1/run: the collected form of the stream, one
// positional BatchResponse once every Spec's event has arrived.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	events, n, ok := s.admit(w, r)
	if !ok {
		return
	}
	resp := BatchResponse{Records: make([]*run.Record, n), Errors: make([]string, n)}
	for range n {
		ev := <-events
		resp.Records[ev.Index], resp.Errors[ev.Index] = ev.Record, ev.Error
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleHealth answers GET /healthz: liveness, the runner's execution and
// store counters, the per-workload pool shape, and the full metrics
// snapshot. The store record count and pool map are read under the server's
// read lock, so health reporting observes a consistent view against
// concurrent pool starts without serializing health probes behind each
// other.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:       "ok",
		Executions:   s.runner.Executions(),
		StoreErrors:  s.runner.StoreErrors(),
		StoreRecords: -1,
		Pools:        map[string]int{},
	}
	s.mu.RLock()
	store := s.store
	for workload := range s.pools {
		h.Pools[workload] = s.workers
	}
	s.mu.RUnlock()
	if store != nil {
		h.StoreRecords = store.Len()
	}
	h.Metrics = s.metrics.Snapshot()
	WriteJSON(w, http.StatusOK, h)
}

// handleMetrics answers GET /metrics with the Prometheus text exposition of
// every run_* and serve_* series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// WriteJSON renders one JSON response body — shared by the serving tier and
// the router, so error and batch bodies are formatted identically everywhere.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the connection is gone; nothing to do.
	_ = enc.Encode(v)
}
