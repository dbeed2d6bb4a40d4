package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/router"
	"repro/internal/run"
	"repro/internal/serve"
)

// A cheap deterministic workload so the router tests do not pay for real
// benchmark suites. Registered once for this test process.
func init() {
	suite.MustRegister(&suite.Workload{
		Name: "router-hook", Key: "rh", FileTag: "rh", Title: "Router Test Hook",
		Order: 97, PaperUnits: 1, UnitName: "units/scenario",
		Generate: func(scale float64) []suite.Scenario {
			return []suite.Scenario{hookScenario{}}
		},
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Variants: []*suite.Variant{{
			Name: "sequential", Style: suite.Sequential,
			Defaults: suite.Params{"work": 100},
			Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
				t.Compute(int64(p["work"]))
				return suite.Output{Checksum: uint64(p["work"]) * 3}
			},
		}},
	})
}

type hookScenario struct{}

func (hookScenario) ScenarioName() string { return "rh-1" }
func (hookScenario) Units() int           { return 1 }
func (hookScenario) Warm()                {}

func hookSpec(work int) run.Spec {
	return run.Spec{Workload: "router-hook", Variant: "sequential", Platform: "alpha", Procs: 1,
		Params: suite.Params{"work": work}, Validate: true}
}

// flakyShard is a real serve.Server behind a kill switch: run/stream requests
// past the allowance fail with a 500 before they reach the server, the way a
// SIGKILLed process fails them at the socket. /healthz stays alive so the
// state machine is driven by routed-request outcomes, the harder case.
type flakyShard struct {
	ts      *httptest.Server
	runner  *run.Runner
	allowed atomic.Int64
}

func newFlakyShard(t *testing.T, storeDir string) *flakyShard {
	t.Helper()
	runner := run.NewRunner(0)
	var ds *run.DiskStore
	if storeDir != "" {
		var err error
		ds, err = run.NewDiskStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		runner.SetStore(ds)
	}
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 4, Store: ds})
	f := &flakyShard{runner: runner}
	f.allowed.Store(math.MaxInt64)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if (r.URL.Path == serve.RunPath || r.URL.Path == serve.StreamPath) && f.allowed.Add(-1) < 0 {
			http.Error(w, "shard killed", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		f.ts.Close()
		srv.Close()
	})
	return f
}

// kill makes every subsequent run/stream request fail.
func (f *flakyShard) kill() { f.allowed.Store(0) }

// failAfter allows n more run/stream requests, then fails the rest.
func (f *flakyShard) failAfter(n int64) { f.allowed.Store(n) }

func (f *flakyShard) url() string { return f.ts.URL }

// newRouter builds a router over the shard URLs. Probes are effectively off
// (hour-long interval) so tests control health observations through traffic.
func newRouter(t *testing.T, opts router.Options) (*router.Router, *httptest.Server, *serve.Client) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Hour
	}
	rt, err := router.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts, &serve.Client{Addr: ts.URL, Retries: -1}
}

func shardConfigs(urls ...string) []router.Shard {
	out := make([]router.Shard, len(urls))
	for i, u := range urls {
		out[i] = router.Shard{URL: u}
	}
	return out
}

// specHomedOn finds a hook Spec whose rendezvous home among urls is home.
func specHomedOn(t *testing.T, home string, urls []string, exclude map[int]bool) (run.Spec, int) {
	t.Helper()
	for work := 1; work < 10000; work++ {
		if exclude[work] {
			continue
		}
		spec := hookSpec(work)
		if router.Rank(spec.Key(), urls)[0] == home {
			return spec, work
		}
	}
	t.Fatal("no spec homes on", home)
	return run.Spec{}, 0
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, opts := range []router.Options{
		{},
		{Shards: shardConfigs("not a url")},
		{Shards: shardConfigs("ftp://host:1")},
		{Shards: shardConfigs("http://h:1", "http://h:1/")},
	} {
		if _, err := router.New(opts); err == nil {
			t.Errorf("New(%+v) accepted a bad config", opts)
		}
	}
}

func TestRendezvousRankStability(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = hookSpec(i + 1).Key()
	}
	two := []string{"http://a:1", "http://b:1"}
	three := []string{"http://a:1", "http://b:1", "http://c:1"}

	// Determinism and totality: same inputs, same total order, regardless of
	// candidate slice order.
	for _, k := range keys {
		r1 := router.Rank(k, three)
		r2 := router.Rank(k, []string{"http://c:1", "http://a:1", "http://b:1"})
		if fmt.Sprint(r1) != fmt.Sprint(r2) {
			t.Fatalf("Rank(%q) depends on candidate order: %v vs %v", k, r1, r2)
		}
	}

	// Adding a shard moves ONLY the keys the newcomer wins; every other key
	// keeps its home (and therefore its warm caches).
	moved := 0
	for _, k := range keys {
		before := router.Rank(k, two)[0]
		after := router.Rank(k, three)[0]
		if after != before {
			if after != "http://c:1" {
				t.Fatalf("key %q moved %s → %s, not to the new shard", k, before, after)
			}
			moved++
		}
	}
	if moved == 0 || moved == len(keys) {
		t.Fatalf("adding a shard moved %d/%d keys; want a proper subset", moved, len(keys))
	}

	// Removing a shard re-homes only its own keys: for every key not homed on
	// c, the two-shard home equals the three-shard home.
	for _, k := range keys {
		if router.Rank(k, three)[0] == "http://c:1" {
			continue
		}
		if router.Rank(k, three)[0] != router.Rank(k, two)[0] {
			t.Fatalf("key %q re-homed by an unrelated shard's removal", k)
		}
	}

	// Both shards actually take traffic (the hash is not degenerate).
	byHome := map[string]int{}
	for _, k := range keys {
		byHome[router.Rank(k, two)[0]]++
	}
	for _, u := range two {
		if byHome[u] == 0 {
			t.Fatalf("shard %s won no keys out of %d: %v", u, len(keys), byHome)
		}
	}
}

func TestRouterBatchTransparent(t *testing.T) {
	// Two replicas over one record store; through the router, serve.Client
	// sees a single server and the records are byte-identical to local
	// execution. Every distinct spec executes exactly once across the tier.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	_, _, client := newRouter(t, router.Options{Shards: shardConfigs(a.url(), b.url())})

	specs := make([]run.Spec, 8)
	for i := range specs {
		specs[i] = hookSpec(10 * (i + 1))
	}
	specs = append(specs, hookSpec(10)) // duplicate: dedup must survive routing
	recs, err := client.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Key != recs[8].Key || recs[0].ModelSeconds != recs[8].ModelSeconds {
		t.Error("identical specs diverged across the router")
	}
	if total := a.runner.Executions() + b.runner.Executions(); total != 8 {
		t.Errorf("9 specs (8 distinct) executed %d times across shards", total)
	}
	if a.runner.Executions() == 0 || b.runner.Executions() == 0 {
		t.Errorf("partitioning is degenerate: %d/%d executions",
			a.runner.Executions(), b.runner.Executions())
	}
	local, err := run.NewRunner(0).Run(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	remote := recs[0]
	local.HostElapsed, remote.HostElapsed = 0, 0
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if !bytes.Equal(lb, rb) {
		t.Errorf("routed record differs from local:\n  local  %s\n  routed %s", lb, rb)
	}
}

func TestRouterFailover(t *testing.T) {
	// A shard dies mid-batch: the batch still completes through the replica,
	// no spec executes twice, and the failover is visible in the metrics.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	urls := []string{a.url(), b.url()}
	_, ts, client := newRouter(t, router.Options{Shards: shardConfigs(urls...)})

	// Build a batch with at least one spec homed on each shard.
	used := map[int]bool{}
	var specs []run.Spec
	for i := 0; i < 3; i++ {
		for _, home := range urls {
			spec, work := specHomedOn(t, home, urls, used)
			used[work] = true
			specs = append(specs, spec)
		}
	}

	a.kill()
	recs, err := client.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatalf("batch failed despite a live replica: %v", err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("got %d records for %d specs", len(recs), len(specs))
	}
	// The dead shard executed nothing; the replica executed every distinct
	// spec exactly once — failover re-partitioned, it did not duplicate.
	if a.runner.Executions() != 0 {
		t.Errorf("killed shard executed %d specs", a.runner.Executions())
	}
	if got := b.runner.Executions(); got != int64(len(specs)) {
		t.Errorf("replica executed %d, want %d", got, len(specs))
	}

	// Metrics: failovers are charged to the dead shard, and its request
	// counter shows the error outcome.
	body := fetchMetrics(t, ts)
	failKey := fmt.Sprintf("router_shard_failovers_total{shard=%q}", a.url())
	if !strings.Contains(body, failKey) {
		t.Errorf("metrics missing %s:\n%s", failKey, body)
	}
	errKey := fmt.Sprintf("router_shard_requests_total{outcome=\"error\",shard=%q} 1", a.url())
	if !strings.Contains(body, errKey) {
		t.Errorf("metrics missing %s:\n%s", errKey, body)
	}

	// The shard is degraded after one failed sub-batch (DownAfter defaults to
	// 3) but still routable; /healthz says so.
	h := fetchRouterHealth(t, ts)
	if h.Status != "ok" {
		t.Errorf("router health %q, want ok (degraded shards are routable)", h.Status)
	}
	stateOf := map[string]string{}
	for _, sh := range h.Shards {
		stateOf[sh.URL] = sh.State
	}
	if stateOf[a.url()] != "degraded" || stateOf[b.url()] != "up" {
		t.Errorf("shard states %v, want a degraded / b up", stateOf)
	}
}

func TestRouterShardDownAndNoCandidates(t *testing.T) {
	// With DownAfter=1 a single failure turns the shard down: router_shard_up
	// drops to 0 and /healthz reports degraded. Kill the last replica too and
	// specs come back with per-spec routing errors, not a failed batch.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	_, ts, client := newRouter(t, router.Options{
		Shards:    shardConfigs(a.url(), b.url()),
		DownAfter: 1,
	})

	a.kill()
	if _, err := client.RunAll(context.Background(), []run.Spec{hookSpec(42)}); err != nil {
		t.Fatalf("one dead shard must not fail the batch: %v", err)
	}
	if a.runner.Executions() != 0 || b.runner.Executions() == 0 {
		t.Errorf("executions a=%d b=%d after a killed", a.runner.Executions(), b.runner.Executions())
	}
	// Spec 42 may not have homed on a, so force an observation with a spec
	// that does; one failure at DownAfter=1 turns the shard down.
	spec, _ := specHomedOn(t, a.url(), []string{a.url(), b.url()}, nil)
	if _, err := client.RunAll(context.Background(), []run.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	body := fetchMetrics(t, ts)
	upKey := fmt.Sprintf("router_shard_up{shard=%q} 0", a.url())
	if !strings.Contains(body, upKey) {
		t.Errorf("metrics missing %s:\n%s", upKey, body)
	}
	if h := fetchRouterHealth(t, ts); h.Status != "degraded" {
		t.Errorf("router health %q, want degraded (one shard down)", h.Status)
	}

	b.kill()
	br, err := client.RunBatch(context.Background(), []run.Spec{hookSpec(4242)})
	if err != nil {
		t.Fatalf("all-dead tier must still answer positionally: %v", err)
	}
	if br.Records[0] != nil || !strings.Contains(br.Errors[0], "router: no live shard serves workload") {
		t.Errorf("all-dead tier: record %v, error %q", br.Records[0], br.Errors[0])
	}
}

func TestRouterWorkloadConstraints(t *testing.T) {
	// A shard constrained to a workload set never sees other workloads, and a
	// workload no shard serves is a per-spec error.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	_, _, client := newRouter(t, router.Options{Shards: []router.Shard{
		{URL: a.url(), Workloads: []string{"some-other-workload"}},
		{URL: b.url(), Workloads: []string{"router-hook"}},
	}})
	br, err := client.RunBatch(context.Background(), []run.Spec{
		hookSpec(77),
		{Workload: "unserved", Variant: "x", Platform: "alpha", Procs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Errors[0] != "" || br.Records[0] == nil {
		t.Errorf("constrained spec failed: %q", br.Errors[0])
	}
	if a.runner.Executions() != 0 || b.runner.Executions() != 1 {
		t.Errorf("constraint ignored: executions a=%d b=%d", a.runner.Executions(), b.runner.Executions())
	}
	if br.Records[1] != nil || !strings.Contains(br.Errors[1], `workload "unserved"`) {
		t.Errorf("unserved workload: record %v, error %q", br.Records[1], br.Errors[1])
	}
}

func TestRouterStream(t *testing.T) {
	// The router's /v1/run/stream merges the shards' streams: every index
	// arrives exactly once and the records match the batch endpoint's.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	_, _, client := newRouter(t, router.Options{Shards: shardConfigs(a.url(), b.url())})

	specs := make([]run.Spec, 6)
	for i := range specs {
		specs[i] = hookSpec(20 * (i + 1))
	}
	got := make([]*run.Record, len(specs))
	err := client.RunStream(context.Background(), specs, func(ev serve.StreamEvent) {
		if ev.Error != "" {
			t.Errorf("spec %d streamed error %q", ev.Index, ev.Error)
			return
		}
		got[ev.Index] = ev.Record
	})
	if err != nil {
		t.Fatal(err)
	}
	br, err := client.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i] == nil {
			t.Fatalf("spec %d never streamed", i)
		}
		sb, _ := json.Marshal(got[i])
		bb, _ := json.Marshal(br.Records[i])
		if !bytes.Equal(sb, bb) {
			t.Errorf("spec %d: streamed record differs from batch record:\n  stream %s\n  batch  %s", i, sb, bb)
		}
	}
}

func TestRouterStreamFailover(t *testing.T) {
	// A shard that fails its stream loses only the undelivered remainder: the
	// merged stream still yields every index exactly once (client.RunStream
	// verifies exactly-once itself).
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	urls := []string{a.url(), b.url()}
	_, ts, client := newRouter(t, router.Options{Shards: shardConfigs(urls...)})

	used := map[int]bool{}
	var specs []run.Spec
	for i := 0; i < 2; i++ {
		for _, home := range urls {
			spec, work := specHomedOn(t, home, urls, used)
			used[work] = true
			specs = append(specs, spec)
		}
	}
	a.kill()
	delivered := 0
	err := client.RunStream(context.Background(), specs, func(ev serve.StreamEvent) {
		if ev.Error != "" {
			t.Errorf("spec %d streamed error %q", ev.Index, ev.Error)
		}
		delivered++
	})
	if err != nil {
		t.Fatalf("stream failed despite a live replica: %v", err)
	}
	if delivered != len(specs) {
		t.Errorf("stream delivered %d of %d events", delivered, len(specs))
	}
	if a.runner.Executions() != 0 {
		t.Errorf("killed shard executed %d specs", a.runner.Executions())
	}
	body := fetchMetrics(t, ts)
	failKey := fmt.Sprintf("router_shard_failovers_total{shard=%q}", a.url())
	if !strings.Contains(body, failKey) {
		t.Errorf("metrics missing %s:\n%s", failKey, body)
	}
}

func TestRouterCallerCancelIsNotShardFailure(t *testing.T) {
	// A caller that gives up is not a shard failure: with both shards
	// hanging, three single-spec batches cancelled by their callers must
	// leave both shards up, routable and uncharged with failovers.
	hanging := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Read the body first: only then does the server watch the
			// connection and cancel the context when the caller hangs up.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	urls := []string{hanging(), hanging()}
	_, ts, client := newRouter(t, router.Options{Shards: shardConfigs(urls...)})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := client.RunBatch(ctx, []run.Spec{hookSpec(900 + i)})
		cancel()
		if err == nil {
			t.Fatal("a batch against hanging shards succeeded")
		}
	}
	// The router finishes each abandoned request after its caller has gone;
	// wait until all three are on its books before reading shard health.
	want := `router_requests_total{code="2xx",path="/v1/run"} 3`
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(fetchMetrics(t, ts), want) {
		if time.Now().After(deadline) {
			t.Fatalf("router never finished the cancelled batches (%s)", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	body := fetchMetrics(t, ts)
	for _, u := range urls {
		if up := fmt.Sprintf("router_shard_up{shard=%q} 1", u); !strings.Contains(body, up) {
			t.Errorf("metrics missing %s:\n%s", up, body)
		}
	}
	if strings.Contains(body, "router_shard_failovers_total") {
		t.Errorf("cancelled callers charged shard failovers:\n%s", body)
	}
	for _, sh := range fetchRouterHealth(t, ts).Shards {
		if sh.State != "up" {
			t.Errorf("shard %s is %s after cancelled callers, want up", sh.URL, sh.State)
		}
	}
}

func TestRouterProbesRecoverShard(t *testing.T) {
	// Probes bring a down shard back: kill it, drive it down, revive it, and
	// the next probe marks it up again.
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	urls := []string{a.url(), b.url()}
	rt, _, client := newRouter(t, router.Options{
		Shards:        shardConfigs(urls...),
		DownAfter:     1,
		ProbeInterval: 20 * time.Millisecond,
	})
	rt.Start()

	a.kill()
	spec, _ := specHomedOn(t, a.url(), urls, nil)
	if _, err := client.RunAll(context.Background(), []run.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	// a is down. Revive it: probes hit /healthz (alive throughout), and any
	// probe success resets the state machine to up.
	a.failAfter(math.MaxInt64)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := client.Healthz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never recovered via probes")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterEndpointLabels(t *testing.T) {
	// The router's request counters classify its real endpoints; junk paths
	// fold into "other".
	dir := t.TempDir()
	a := newFlakyShard(t, dir)
	_, ts, client := newRouter(t, router.Options{Shards: shardConfigs(a.url())})
	if _, err := client.RunAll(context.Background(), []run.Spec{hookSpec(5)}); err != nil {
		t.Fatal(err)
	}
	if err := client.RunStream(context.Background(), []run.Spec{hookSpec(6)}, func(serve.StreamEvent) {}); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/no/such")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := fetchMetrics(t, ts)
	for _, want := range []string{
		`router_requests_total{code="2xx",path="/v1/run"} 1`,
		`router_requests_total{code="2xx",path="/v1/run/stream"} 1`,
		`router_requests_total{code="4xx",path="other"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestExperimentThroughRouterMatchesLocal(t *testing.T) {
	// The acceptance check: a c3ibench-driven experiment through the router —
	// two replicas over one store, one of which dies mid-sweep — produces
	// records and tables identical to local execution.
	if testing.Short() {
		t.Skip("runs a real experiment twice")
	}
	dir := t.TempDir()
	a, b := newFlakyShard(t, dir), newFlakyShard(t, dir)
	_, ts, _ := newRouter(t, router.Options{Shards: shardConfigs(a.url(), b.url())})
	client := &serve.Client{Addr: ts.URL}
	scales := map[string]float64{experiments.TA: 0.02}

	exp, err := experiments.Get("table5")
	if err != nil {
		t.Fatal(err)
	}
	// The shard dies after its second request, mid-sweep.
	a.failAfter(2)
	remote, err := exp.Run(experiments.Config{Scales: scales, Executor: client})
	if err != nil {
		t.Fatal(err)
	}
	local, err := exp.Run(experiments.Config{Scales: scales})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Records) == 0 || len(remote.Records) != len(local.Records) {
		t.Fatalf("record counts differ: remote %d, local %d", len(remote.Records), len(local.Records))
	}
	for i := range local.Records {
		l, r := local.Records[i], remote.Records[i]
		l.HostElapsed, r.HostElapsed = 0, 0
		lb, _ := json.Marshal(l)
		rb, _ := json.Marshal(r)
		if !bytes.Equal(lb, rb) {
			t.Errorf("record %d differs:\n  local  %s\n  remote %s", i, lb, rb)
		}
	}
	var lt, rt []string
	for _, tb := range local.Tables {
		lt = append(lt, tb.Render())
	}
	for _, tb := range remote.Tables {
		rt = append(rt, tb.Render())
	}
	if fmt.Sprint(lt) != fmt.Sprint(rt) {
		t.Error("rendered tables differ between local and routed execution")
	}
}

// fetchMetrics GETs the router's Prometheus exposition.
func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", serve.MetricsPath, resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// fetchRouterHealth GETs and decodes the router's /healthz.
func fetchRouterHealth(t *testing.T, ts *httptest.Server) router.Health {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + serve.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h router.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}
