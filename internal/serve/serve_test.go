package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/run"
	"repro/internal/serve"
)

// A cheap deterministic workload so the serving tests do not pay for real
// benchmark suites. Registered once for this test process.
func init() {
	suite.MustRegister(&suite.Workload{
		Name: "serve-hook", Key: "sh", FileTag: "sh", Title: "Serve Test Hook",
		Order: 98, PaperUnits: 1, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Generate: func(scale float64) []suite.Scenario {
			return []suite.Scenario{hookScenario{}}
		},
		New: func() suite.Scenario { return hookScenario{} },
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

func (hookScenario) ScenarioName() string { return "sh-1" }
func (hookScenario) Units() int           { return 1 }
func (hookScenario) Warm()                {}
func (hookScenario) Validate() error      { return nil }

func hookSpec(work int) run.Spec {
	return run.Spec{Workload: "serve-hook", Variant: "sequential", Platform: "alpha", Procs: 1,
		Params: suite.Params{"work": work}, Validate: true}
}

// newServer builds a ready server over a fresh runner, optionally
// store-backed, and tears everything down with the test.
func newServer(t *testing.T, storeDir string) (*httptest.Server, *run.Runner, *serve.Client) {
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
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, runner, &serve.Client{Addr: ts.URL, HTTP: ts.Client()}
}

// postRaw POSTs a raw body to /v1/run and returns status + decoded body.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+serve.RunPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp.StatusCode, out
}

func TestServeBatchPositional(t *testing.T) {
	_, runner, client := newServer(t, "")
	ctx := context.Background()
	specs := []run.Spec{hookSpec(100), hookSpec(200), hookSpec(100)}
	recs, err := client.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Key != recs[2].Key || recs[0].ModelSeconds != recs[2].ModelSeconds {
		t.Error("identical specs diverged")
	}
	if recs[1].Key == recs[0].Key {
		t.Error("distinct specs collapsed")
	}
	if recs[0].Checksum != 300 || recs[1].Checksum != 600 {
		t.Errorf("checksums %x/%x, want 12c/258", uint64(recs[0].Checksum), uint64(recs[1].Checksum))
	}
	if got := runner.Executions(); got != 2 {
		t.Errorf("3 specs (2 distinct) executed %d times", got)
	}

	// The served record is byte-identical to a local execution of the same
	// Spec (HostElapsed aside — that is the cost of computing, not the
	// result).
	local, err := run.NewRunner(0).Run(ctx, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	remote := recs[0]
	local.HostElapsed, remote.HostElapsed = 0, 0
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if !bytes.Equal(lb, rb) {
		t.Errorf("remote record differs from local:\n  local  %s\n  remote %s", lb, rb)
	}
}

func TestServeRepeatBatchIsCached(t *testing.T) {
	_, runner, client := newServer(t, "")
	ctx := context.Background()
	specs := []run.Spec{hookSpec(300), hookSpec(400)}
	first, err := client.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	execs := runner.Executions()
	second, err := client.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.Executions(); got != execs {
		t.Errorf("repeated batch re-executed: %d → %d engine runs", execs, got)
	}
	for i := range first {
		if first[i].HostElapsed != second[i].HostElapsed || first[i].ModelSeconds != second[i].ModelSeconds {
			t.Errorf("cached record %d diverged", i)
		}
	}
}

func TestServeDiskStoreAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	specs := []run.Spec{hookSpec(500), hookSpec(600)}

	_, runner1, client1 := newServer(t, dir)
	first, err := client1.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if runner1.Executions() != 2 {
		t.Fatalf("first server executed %d, want 2", runner1.Executions())
	}

	// A second server on the same store (a "restarted process") answers the
	// batch without a single engine execution.
	_, runner2, client2 := newServer(t, dir)
	second, err := client2.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner2.Executions(); got != 0 {
		t.Errorf("restarted server executed %d times, want 0 (disk store)", got)
	}
	for i := range first {
		if first[i].Key != second[i].Key || first[i].ModelSeconds != second[i].ModelSeconds ||
			first[i].Checksum != second[i].Checksum || first[i].HostElapsed != second[i].HostElapsed {
			t.Errorf("store-served record %d diverged:\n  %+v\n  %+v", i, first[i], second[i])
		}
	}

	h, err := client2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Executions != 0 || h.StoreRecords != 2 {
		t.Errorf("health = %+v, want ok/0 executions/2 records", h)
	}
}

func TestServeCorruptedStoreRecomputes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, _, client1 := newServer(t, dir)
	first, err := client1.RunAll(ctx, []run.Spec{hookSpec(700)})
	if err != nil {
		t.Fatal(err)
	}
	// Garble every record file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	garbled := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("{half a rec"), 0o644); err != nil {
				t.Fatal(err)
			}
			garbled++
		}
	}
	if garbled == 0 {
		t.Fatal("no record files to garble")
	}
	_, runner2, client2 := newServer(t, dir)
	recs, err := client2.RunAll(ctx, []run.Spec{hookSpec(700)})
	if err != nil {
		t.Fatalf("corrupted store crashed the request: %v", err)
	}
	if runner2.Executions() != 1 {
		t.Errorf("corrupted entry served without recompute: %d executions", runner2.Executions())
	}
	if recs[0].ModelSeconds != first[0].ModelSeconds || recs[0].Checksum != first[0].Checksum {
		t.Errorf("recomputed record diverged: %+v vs %+v", recs[0], first[0])
	}
}

func TestServeUnknownWorkloadIsPerSpecError(t *testing.T) {
	ts, runner, _ := newServer(t, "")
	batch := `[
		{"workload":"serve-hook","variant":"sequential","platform":"alpha","procs":1},
		{"workload":"no-such-workload","variant":"sequential","platform":"alpha","procs":1},
		{"workload":"serve-hook","variant":"turbo","platform":"alpha","procs":1}
	]`
	status, out := postRaw(t, ts, batch)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (the batch still returns)", status)
	}
	records := out["records"].([]any)
	errs := out["errors"].([]any)
	if len(records) != 3 || len(errs) != 3 {
		t.Fatalf("response not positional: %d records, %d errors", len(records), len(errs))
	}
	if records[0] == nil || errs[0].(string) != "" {
		t.Errorf("good spec failed: %v / %v", records[0], errs[0])
	}
	if records[1] != nil || !strings.Contains(errs[1].(string), "no-such-workload") {
		t.Errorf("unknown workload: record %v, error %q", records[1], errs[1])
	}
	if records[2] != nil || !strings.Contains(errs[2].(string), "turbo") {
		t.Errorf("unknown variant: record %v, error %q", records[2], errs[2])
	}
	if runner.Executions() != 1 {
		t.Errorf("executions = %d, want 1 (only the good spec)", runner.Executions())
	}
}

func TestServeMalformedBatch(t *testing.T) {
	ts, _, _ := newServer(t, "")
	// Not JSON at all.
	status, out := postRaw(t, ts, "{half a batch")
	if status != http.StatusBadRequest || out["error"] == "" {
		t.Errorf("malformed body: status %d, body %v", status, out)
	}
	// Not an array.
	status, _ = postRaw(t, ts, `{"workload":"serve-hook"}`)
	if status != http.StatusBadRequest {
		t.Errorf("non-array body: status %d, want 400", status)
	}
	// Empty batch.
	status, _ = postRaw(t, ts, `[]`)
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	// One malformed element: 400 with a positional error naming index 1.
	status, out = postRaw(t, ts, `[
		{"workload":"serve-hook","variant":"sequential","platform":"alpha","procs":1},
		{"workload":"serve-hook","procs":"one"},
		{"workload":"serve-hook","variant":"sequential","platform":"alpha","procs":2}
	]`)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed element: status %d, want 400", status)
	}
	perIndex, ok := out["errors"].([]any)
	if !ok || len(perIndex) != 3 {
		t.Fatalf("expected 3 positional errors, got %v", out["errors"])
	}
	if perIndex[0].(string) != "" || perIndex[2].(string) != "" {
		t.Errorf("well-formed elements blamed: %v", perIndex)
	}
	if !strings.Contains(perIndex[1].(string), "spec 1") {
		t.Errorf("malformed element error %q does not name its index", perIndex[1])
	}
	// GET is not allowed on the run endpoint.
	resp, err := ts.Client().Get(ts.URL + serve.RunPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", serve.RunPath, resp.StatusCode)
	}
}

func TestServeAfterCloseAnswersWithErrors(t *testing.T) {
	// A request arriving after (or surviving past) Close must get per-spec
	// errors, never a send on a closed pool channel: Close signals quit, it
	// does not close the task channels.
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm a pool so Close has live workers to stop.
	client := &serve.Client{Addr: ts.URL, HTTP: ts.Client()}
	if _, err := client.RunAll(context.Background(), []run.Spec{hookSpec(800)}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent

	status, out := postRaw(t, ts, `[{"workload":"serve-hook","variant":"sequential","platform":"alpha","procs":1}]`)
	if status != http.StatusOK {
		t.Fatalf("post-Close batch: status %d, want 200 with per-spec errors", status)
	}
	errs := out["errors"].([]any)
	if len(errs) != 1 || !strings.Contains(errs[0].(string), "shut down") {
		t.Errorf("post-Close errors = %v, want a shut-down error", errs)
	}
}

func TestClientRunBatchKeepsFailedSpecsNull(t *testing.T) {
	_, _, client := newServer(t, "")
	br, err := client.RunBatch(context.Background(), []run.Spec{
		hookSpec(900),
		{Workload: "no-such-workload", Variant: "x", Platform: "alpha", Procs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Records[0] == nil || br.Errors[0] != "" {
		t.Errorf("good spec: %+v / %q", br.Records[0], br.Errors[0])
	}
	if br.Records[1] != nil || !strings.Contains(br.Errors[1], "no-such-workload") {
		t.Errorf("failed spec must stay a null record: %+v / %q", br.Records[1], br.Errors[1])
	}
}

func TestExperimentRemoteMatchesLocal(t *testing.T) {
	// The acceptance check: a c3ibench-driven experiment executed through
	// the remote client produces records identical (Key, ModelSeconds,
	// Checksum — the full JSON minus host cost) to local execution.
	if testing.Short() {
		t.Skip("runs a real experiment twice")
	}
	_, runner, client := newServer(t, "")
	scales := map[string]float64{experiments.TA: 0.02}

	exp, err := experiments.Get("table5")
	if err != nil {
		t.Fatal(err)
	}
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
	if runner.Executions() == 0 {
		t.Error("remote run did not execute on the server")
	}

	// Rendered output is identical too: the tables cannot tell where their
	// numbers were computed.
	var lt, rt []string
	for _, tb := range local.Tables {
		lt = append(lt, tb.Render())
	}
	for _, tb := range remote.Tables {
		rt = append(rt, tb.Render())
	}
	if fmt.Sprint(lt) != fmt.Sprint(rt) {
		t.Error("rendered tables differ between local and remote execution")
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	ts, _, client := newServer(t, "")
	ctx := context.Background()
	specs := []run.Spec{hookSpec(1000), hookSpec(1100)}
	if _, err := client.RunAll(ctx, specs); err != nil {
		t.Fatal(err)
	}

	fetch := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + serve.MetricsPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", serve.MetricsPath, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("metrics Content-Type = %q, want text/plain", ct)
		}
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	body := fetch()
	for _, want := range []string{
		"# TYPE run_executions_total counter",
		`run_executions_total{workload="serve-hook"} 2`,
		`run_exec_seconds_count{workload="serve-hook"} 2`,
		"# TYPE serve_requests_total counter",
		`serve_requests_total{code="2xx",path="/v1/run"} 1`,
		`serve_pool_workers{workload="serve-hook"} 4`,
		"# TYPE serve_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	// A repeated batch increments request and cache-hit counters but not
	// executions — the invariant the CI smoke job gates on.
	if _, err := client.RunAll(ctx, specs); err != nil {
		t.Fatal(err)
	}
	body = fetch()
	for _, want := range []string{
		`run_executions_total{workload="serve-hook"} 2`,
		`run_cache_hits_total{workload="serve-hook"} 2`,
		`serve_requests_total{code="2xx",path="/v1/run"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-repeat metrics missing %q:\n%s", want, body)
		}
	}

	// POST is not allowed.
	resp, err := ts.Client().Post(ts.URL+serve.MetricsPath, "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST %s: status %d, want 405", serve.MetricsPath, resp.StatusCode)
	}
}

func TestServeStatusClassCounters(t *testing.T) {
	ts, _, _ := newServer(t, "")
	// A malformed batch is a 400; it must land in the 4xx class, and an
	// unknown path in the bounded "other" label.
	if status, _ := postRaw(t, ts, "{nope"); status != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mresp, err := ts.Client().Get(ts.URL + serve.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`serve_requests_total{code="4xx",path="/v1/run"} 1`,
		`serve_requests_total{code="4xx",path="other"} 1`,
	} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf)
		}
	}
}

func TestHealthzPoolsAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, _, client := newServer(t, dir)
	ctx := context.Background()
	if _, err := client.RunAll(ctx, []run.Spec{hookSpec(1200)}); err != nil {
		t.Fatal(err)
	}
	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Executions != 1 || h.StoreRecords != 1 {
		t.Errorf("health = %+v", h)
	}
	// Pool shape: the one workload that ran has a pool of the configured
	// width; never-used workloads have none.
	if got := h.Pools["serve-hook"]; got != 4 {
		t.Errorf("pools[serve-hook] = %d, want 4 (WorkersPerWorkload)", got)
	}
	if len(h.Pools) != 1 {
		t.Errorf("pools = %v, want only the started pool", h.Pools)
	}
	// The embedded snapshot carries the runner's series.
	found := false
	for _, c := range h.Metrics.Counters {
		if c.Name == run.MetricExecutions && c.Labels["workload"] == "serve-hook" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz snapshot missing %s: %+v", run.MetricExecutions, h.Metrics.Counters)
	}
	if len(h.Metrics.Histograms) == 0 {
		t.Error("healthz snapshot has no histograms")
	}
}

func TestPprofGatedByOption(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv := serve.New(run.NewRunner(0), serve.Options{WorkersPerWorkload: 1, Pprof: on})
		ts := httptest.NewServer(srv)
		resp, err := ts.Client().Get(ts.URL + serve.PprofPrefix)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("pprof=%v: GET %s status %d, want %d", on, serve.PprofPrefix, resp.StatusCode, want)
		}
		ts.Close()
		srv.Close()
	}
}

func TestClientSetsContentTypeAndTimeout(t *testing.T) {
	// A stub server that records the batch POST's Content-Type and can stall
	// longer than the client's timeout. The header crosses goroutines on a
	// channel: the client times out while the handler is still running.
	contentType := make(chan string, 1)
	stall := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		contentType <- r.Header.Get("Content-Type")
		select {
		case <-stall:
		case <-r.Context().Done():
			return
		}
		_, _ = w.Write([]byte(`{"records":[null],"errors":["boom"]}`))
	}))
	defer stub.Close()
	defer close(stall)

	// Regression: batch POSTs must declare application/json (a proxy or a
	// stricter future server may reject untyped bodies). Retries are off:
	// the stub records each attempt's header on an unbuffered-ish channel,
	// so a retrying client would park extra handlers on it.
	c := &serve.Client{Addr: stub.URL, Timeout: 50 * time.Millisecond, Retries: -1}
	_, err := c.RunBatch(context.Background(), []run.Spec{hookSpec(1300)})
	if err == nil {
		t.Fatal("stalled server did not time the request out")
	}
	if got := <-contentType; got != "application/json" {
		t.Errorf("batch POST Content-Type = %q, want application/json", got)
	}

	// An explicit HTTP client wins over Timeout; the default (no timeout)
	// client is shared.
	if hc := (&serve.Client{}).HTTPClientForTest(); hc != http.DefaultClient {
		t.Error("zero-value client should use http.DefaultClient")
	}
	if hc := (&serve.Client{Timeout: time.Second}).HTTPClientForTest(); hc.Timeout != time.Second {
		t.Errorf("timeout client = %+v, want 1s timeout", hc.Timeout)
	}
	override := &http.Client{}
	if hc := (&serve.Client{HTTP: override, Timeout: time.Second}).HTTPClientForTest(); hc != override {
		t.Error("explicit HTTP override lost to Timeout")
	}
}
