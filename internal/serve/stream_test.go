package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/run"
	"repro/internal/serve"
)

// A workload whose runs block on a gate, so the admission-control and
// streaming tests can hold a worker busy deterministically. A Spec's "gate"
// param names its gate, and every test makes its own: a rerun (-count=N)
// never finds a gate an earlier run already opened.
var (
	gates   sync.Map // gate id -> *gate
	gateIDs atomic.Int64
)

type gate struct {
	id int
	// started gets a token as each gated run begins; its buffer exceeds the
	// runs any test starts, so a run never blocks announcing itself.
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

// newGate registers a fresh gate, opened at the latest when the test ends.
func newGate(t *testing.T) *gate {
	g := &gate{id: int(gateIDs.Add(1)), started: make(chan struct{}, 16), release: make(chan struct{})}
	gates.Store(g.id, g)
	t.Cleanup(g.open)
	return g
}

// open releases every run blocked on the gate, now and later.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// spec is a serve-gate Spec that blocks on g.
func (g *gate) spec(work int) run.Spec {
	return run.Spec{Workload: "serve-gate", Variant: "sequential", Platform: "alpha", Procs: 1,
		Params: suite.Params{"work": work, "gate": g.id}}
}

func init() {
	suite.MustRegister(&suite.Workload{
		Name: "serve-gate", Key: "sg", FileTag: "sg", Title: "Serve Gate Hook",
		Order: 99, PaperUnits: 1, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Generate: func(scale float64) []suite.Scenario {
			return []suite.Scenario{gateScenario{}}
		},
		Variants: []*suite.Variant{{
			Name: "sequential", Style: suite.Sequential,
			Defaults: suite.Params{"work": 100, "gate": 0},
			Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
				g, _ := gates.Load(p["gate"])
				g.(*gate).started <- struct{}{}
				<-g.(*gate).release
				t.Compute(int64(p["work"]))
				return suite.Output{Checksum: uint64(p["work"])}
			},
		}},
	})
}

type gateScenario struct{}

func (gateScenario) ScenarioName() string { return "sg-1" }
func (gateScenario) Units() int           { return 1 }
func (gateScenario) Warm()                {}

func TestServeStreamMatchesBatch(t *testing.T) {
	// /v1/run/stream delivers every spec exactly once (the client verifies
	// that), and the streamed records are the batch endpoint's records.
	ts, runner, client := newServer(t, "")
	ctx := context.Background()
	specs := []run.Spec{hookSpec(2100), hookSpec(2200), hookSpec(2300),
		{Workload: "no-such-workload", Variant: "x", Platform: "alpha", Procs: 1}}

	got := make([]*run.Record, len(specs))
	var streamErr string
	err := client.RunStream(ctx, specs, func(ev serve.StreamEvent) {
		if ev.Error != "" {
			streamErr = ev.Error
			return
		}
		got[ev.Index] = ev.Record
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(streamErr, "no-such-workload") {
		t.Errorf("bad spec's stream error = %q", streamErr)
	}
	br, err := client.RunBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got[i] == nil {
			t.Fatalf("spec %d never streamed", i)
		}
		sb, _ := json.Marshal(got[i])
		bb, _ := json.Marshal(br.Records[i])
		if !bytes.Equal(sb, bb) {
			t.Errorf("spec %d: streamed record differs from batch record:\n  stream %s\n  batch  %s", i, sb, bb)
		}
	}
	if got := runner.Executions(); got != 3 {
		t.Errorf("streaming re-executed cached specs: %d executions", got)
	}

	// The raw response is NDJSON: one JSON object per non-empty line, with
	// the declared content type. And the endpoint label regression: the
	// request counters must classify /v1/run/stream, not fold it into
	// "other".
	body, _ := json.Marshal(specs[:2])
	resp, err := ts.Client().Post(ts.URL+serve.StreamPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	lines := 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev serve.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line %q is not a JSON event: %v", line, err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("stream wrote %d events for 2 specs", lines)
	}
	mresp, err := ts.Client().Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbuf, _ := io.ReadAll(mresp.Body)
	if want := `serve_requests_total{code="2xx",path="/v1/run/stream"}`; !strings.Contains(string(mbuf), want) {
		t.Errorf("metrics missing %q — stream requests folded into \"other\":\n%s", want, mbuf)
	}

	// GET is rejected like the batch endpoint.
	gresp, err := ts.Client().Get(ts.URL + serve.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", serve.StreamPath, gresp.StatusCode)
	}
}

func TestServeAdmissionControl(t *testing.T) {
	// One worker, queue depth one: with a run blocking the worker and one
	// spec parked in the queue, the next spec is rejected with 429 and a
	// Retry-After — the listener never blocks on a full pool.
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := &serve.Client{Addr: ts.URL, HTTP: ts.Client(), Retries: -1}
	g := newGate(t)

	// Occupy the worker.
	firstDone := make(chan error, 1)
	go func() {
		_, err := client.RunAll(context.Background(), []run.Spec{g.spec(1)})
		firstDone <- err
	}()
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("gated run never started")
	}

	// Fill the queue (spec 2) and overflow it (spec 3). Raw POST: a retrying
	// client would mask the 429.
	body, _ := json.Marshal([]run.Spec{g.spec(2), g.spec(3)})
	resp, err := ts.Client().Post(ts.URL+serve.RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	var er serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || !strings.Contains(er.Error, "queue is full") {
		t.Errorf("429 body = %+v (%v), want a queue-is-full error", er, err)
	}

	// Release the gate: the occupied worker and the queued spec finish.
	g.open()
	if err := <-firstDone; err != nil {
		t.Fatalf("gated batch failed: %v", err)
	}

	// The rejected request's queued spec was abandoned with its context: the
	// 429 cost zero engine executions beyond the gated batch's own.
	if got := runner.Executions(); got != 1 {
		t.Errorf("rejected batch executed anyway: %d executions, want 1", got)
	}
	mresp, err := ts.Client().Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbuf, _ := io.ReadAll(mresp.Body)
	if want := `serve_rejected_total{workload="serve-gate"} 1`; !strings.Contains(string(mbuf), want) {
		t.Errorf("metrics missing %q:\n%s", want, mbuf)
	}
}

func TestServeCloseAnswersQueuedSpecs(t *testing.T) {
	// Close with Specs still queued behind a busy worker: no worker will ever
	// take them, so each must resolve as a shut-down error at once, not
	// leave its request waiting on the worker or the gate. The Spec the
	// worker holds still finishes, and its caller gets the Record.
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &serve.Client{Addr: ts.URL, HTTP: ts.Client(), Retries: -1}
	g := newGate(t)

	held := make(chan error, 1)
	go func() {
		_, err := client.RunAll(context.Background(), []run.Spec{g.spec(1)})
		held <- err
	}()
	<-g.started
	queued := make(chan serve.BatchResponse, 1)
	go func() {
		br, err := client.RunBatch(context.Background(), []run.Spec{g.spec(2), g.spec(3)})
		if err != nil {
			t.Errorf("queued batch: %v", err)
		}
		queued <- br
	}()
	depth := runner.Metrics().Gauge(serve.MetricPoolQueueDepth, obs.Labels{"workload": "serve-gate"})
	for deadline := time.Now().Add(10 * time.Second); depth.Value() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the batch never queued behind the busy worker")
		}
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case br := <-queued:
		for i, e := range br.Errors {
			if !strings.Contains(e, "shut down") {
				t.Errorf("queued spec %d: error %q, want a shut-down error", i, e)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued specs were not answered while Close waited on the busy worker")
	}
	g.open()
	<-closed
	if err := <-held; err != nil {
		t.Errorf("the spec a worker held was not finished: %v", err)
	}
}

func TestStreamFlushesEachEvent(t *testing.T) {
	// A fast Spec's event must reach the client while its gated sibling is
	// still running: straight from a shard, and through a router over it. A
	// stream whose lines sit in a write buffer until the batch ends fails.
	for _, tier := range []string{"shard", "router"} {
		t.Run(tier, func(t *testing.T) {
			ts, _, client := newServer(t, "")
			if tier == "router" {
				rt, err := router.New(router.Options{Shards: []router.Shard{{URL: ts.URL}}})
				if err != nil {
					t.Fatal(err)
				}
				rts := httptest.NewServer(rt)
				t.Cleanup(func() {
					rts.Close()
					rt.Close()
				})
				client = &serve.Client{Addr: rts.URL, HTTP: rts.Client()}
			}
			g := newGate(t)
			fast := make(chan serve.StreamEvent, 1)
			done := make(chan error, 1)
			go func() {
				done <- client.RunStream(context.Background(), []run.Spec{g.spec(1), hookSpec(3100)},
					func(ev serve.StreamEvent) {
						if ev.Index == 1 {
							fast <- ev
						}
					})
			}()
			select {
			case ev := <-fast:
				if ev.Record == nil {
					t.Errorf("fast spec streamed error %q", ev.Error)
				}
			case err := <-done:
				t.Fatalf("stream ended while its gated spec was still running: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("the fast spec's event did not arrive while its sibling was gated: events are not flushed")
			}
			g.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClientRetriesStatusAndTransport(t *testing.T) {
	// Admission pushback resolves through the retry policy: two 429s then a
	// 200 looks like one successful request to the caller, with the attempts
	// on the books.
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte(`{"records":[null],"errors":["boom"]}`))
	}))
	defer stub.Close()
	reg := obs.NewRegistry()
	c := &serve.Client{Addr: stub.URL, RetryBackoff: time.Millisecond, Metrics: reg}
	br, err := c.RunBatch(context.Background(), []run.Spec{hookSpec(2400)})
	if err != nil {
		t.Fatalf("retryable 429s surfaced as an error: %v", err)
	}
	if br.Errors[0] != "boom" {
		t.Errorf("response = %+v", br)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	assertCounter(t, reg, serve.MetricClientAttempts, obs.Labels{"path": serve.RunPath}, 3)
	assertCounter(t, reg, serve.MetricClientRetries, obs.Labels{"path": serve.RunPath, "reason": "status"}, 2)

	// Transport errors retry too — and a dead server is still an error once
	// attempts run out.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	reg2 := obs.NewRegistry()
	c2 := &serve.Client{Addr: dead.URL, Retries: 1, RetryBackoff: time.Millisecond, Metrics: reg2}
	if _, err := c2.RunBatch(context.Background(), []run.Spec{hookSpec(2500)}); err == nil {
		t.Fatal("dead server did not error")
	}
	assertCounter(t, reg2, serve.MetricClientAttempts, obs.Labels{"path": serve.RunPath}, 2)
	assertCounter(t, reg2, serve.MetricClientRetries, obs.Labels{"path": serve.RunPath, "reason": "transport"}, 1)

	// 4xx other than 429 is the caller's bug, not transience: no retries.
	var badCalls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	}))
	defer bad.Close()
	c3 := &serve.Client{Addr: bad.URL, RetryBackoff: time.Millisecond}
	if _, err := c3.RunBatch(context.Background(), []run.Spec{hookSpec(2600)}); err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if got := badCalls.Load(); got != 1 {
		t.Errorf("client retried a 400: %d attempts", got)
	}
}

// assertCounter checks one counter series in a registry snapshot.
func assertCounter(t *testing.T, reg *obs.Registry, name string, labels obs.Labels, want int64) {
	t.Helper()
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if c.Labels[k] != v {
				match = false
			}
		}
		if match {
			if c.Value != want {
				t.Errorf("%s%v = %d, want %d", name, labels, c.Value, want)
			}
			return
		}
	}
	t.Errorf("counter %s%v not found in snapshot", name, labels)
}
