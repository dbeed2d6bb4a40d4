package load

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
	"repro/internal/run"
	"repro/internal/serve"
)

// A cheap deterministic workload so the load tests do not pay for real
// benchmark suites. Registered once for this test process; Config.Resolve's
// "all registered workloads" default resolves to exactly this.
func init() {
	suite.MustRegister(&suite.Workload{
		Name: "load-hook", Key: "lh", FileTag: "lh", Title: "Load Test Hook",
		Order: 97, PaperUnits: 1, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Generate: func(scale float64) []suite.Scenario {
			return []suite.Scenario{hookScenario{}}
		},
		New: func() suite.Scenario { return hookScenario{} },
		Variants: []*suite.Variant{{
			Name: "sequential", Style: suite.Sequential,
			Defaults: suite.Params{"work": 50},
			Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
				t.Compute(int64(p["work"]))
				return suite.Output{Checksum: uint64(p["work"]) * 3}
			},
		}},
	})
}

type hookScenario struct{}

func (hookScenario) ScenarioName() string { return "lh-1" }
func (hookScenario) Units() int           { return 1 }
func (hookScenario) Warm()                {}
func (hookScenario) Validate() error      { return nil }

// baseConfig is a resolvable config over the hook workload.
func baseConfig() Config {
	return Config{
		Addr:         "http://example.invalid",
		Steps:        []float64{100},
		StepDuration: time.Second,
		Mix:          Mix{Cold: 0.1, Warm: 0.3, Cached: 0.6},
		StreamRatio:  0.5,
		Seed:         7,
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("cold=0.05,warm=0.2,cached=0.75")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cold != 0.05 || m.Warm != 0.2 || m.Cached != 0.75 {
		t.Errorf("mix = %+v", m)
	}
	if m, err = ParseMix("cached=1"); err != nil || m.Cold != 0 || m.Cached != 1 {
		t.Errorf("single-kind mix = %+v, err %v", m, err)
	}
	for _, bad := range []string{"", "cold=0,warm=0,cached=0", "hot=1", "cold=-1", "cold"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestParseDists(t *testing.T) {
	ints, err := ParseIntDist("1=6,4=3,16=1")
	if err != nil || len(ints) != 3 || ints[1].Value != 4 || ints[1].Weight != 3 {
		t.Errorf("int dist = %+v, err %v", ints, err)
	}
	for _, bad := range []string{"", "0=1", "x=1", "1=-2", "1"} {
		if _, err := ParseIntDist(bad); err == nil {
			t.Errorf("int dist %q accepted", bad)
		}
	}
	names, err := ParseNameDist("load-hook=3,other")
	if err != nil || len(names) != 2 || names[0].Weight != 3 || names[1].Weight != 1 {
		t.Errorf("name dist = %+v, err %v", names, err)
	}
	if _, err := ParseNameDist("=2"); err == nil {
		t.Error("empty name accepted")
	}
	steps, err := ParseSteps("50, 100,200")
	if err != nil || len(steps) != 3 || steps[2] != 200 {
		t.Errorf("steps = %v, err %v", steps, err)
	}
	for _, bad := range []string{"", "0", "-5", "fast"} {
		if _, err := ParseSteps(bad); err == nil {
			t.Errorf("steps %q accepted", bad)
		}
	}
}

func TestConfigResolveDefaults(t *testing.T) {
	cfg, err := baseConfig().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.BatchSizes) == 0 || len(cfg.Workloads) == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if cfg.Workloads[0].Value != "load-hook" {
		t.Errorf("default workloads = %+v, want the registered hook", cfg.Workloads)
	}
	if cfg.Scale != 0.02 || cfg.Platform != "tera" || cfg.Procs != 1 || cfg.MaxInflight != 256 {
		t.Errorf("scalar defaults wrong: %+v", cfg)
	}

	for name, mutate := range map[string]func(*Config){
		"no addr":          func(c *Config) { c.Addr = "" },
		"no steps":         func(c *Config) { c.Steps = nil },
		"zero rps":         func(c *Config) { c.Steps = []float64{0} },
		"zero duration":    func(c *Config) { c.StepDuration = 0 },
		"negative warmup":  func(c *Config) { c.Warmup = -time.Second },
		"empty mix":        func(c *Config) { c.Mix = Mix{} },
		"bad stream ratio": func(c *Config) { c.StreamRatio = 1.5 },
		"unknown workload": func(c *Config) { c.Workloads = []Choice[string]{{"nope", 1}} },
		"unknown platform": func(c *Config) { c.Platform = "cray-3" },
	} {
		c := baseConfig()
		mutate(&c)
		if _, err := c.Resolve(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// schedule draws n requests and flattens them to comparable strings.
func schedule(cfg Config, n int) []string {
	g := newGenerator(&cfg)
	var out []string
	for i := 0; i < n; i++ {
		req := g.next()
		keys := make([]string, len(req.specs))
		for j, s := range req.specs {
			keys[j] = s.Key()
		}
		out = append(out, req.endpoint+" "+strings.Join(keys, ";"))
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg, err := baseConfig().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a, b := schedule(cfg, 300), schedule(cfg, 300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := schedule(cfg2, 300)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestGeneratorMixSemantics(t *testing.T) {
	cfg, err := baseConfig().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(&cfg)
	seen := map[string]int{}
	scales := map[float64]bool{}
	for i := 0; i < 2000; i++ {
		s := g.spec()
		seen[s.Key()]++
		scales[s.Scale] = true
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n - 1
		}
	}
	// Cached weight 0.6 over 2000 draws: a large share must be exact repeats
	// (server cache hits), and warm/cold must keep minting unique keys.
	if repeats < 500 {
		t.Errorf("only %d cached repeats in 2000 draws (weight 0.6)", repeats)
	}
	if len(seen) < 300 {
		t.Errorf("only %d unique keys in 2000 draws — warm/cold are not minting fresh Specs", len(seen))
	}
	// Cold draws derive fresh scales beyond the base.
	if len(scales) < 2 {
		t.Errorf("all draws at one scale %v — cold never generated a fresh workload×scale", scales)
	}
}

func TestHarnessEndToEnd(t *testing.T) {
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 4})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	cfg := baseConfig()
	cfg.Addr = ts.URL
	cfg.Steps = []float64{150, 300}
	cfg.StepDuration = 250 * time.Millisecond
	cfg.Warmup = 50 * time.Millisecond
	cfg.Scale = 1
	cfg.Platform = "alpha"
	cfg.Timeout = 10 * time.Second

	h, err := New(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 2 {
		t.Fatalf("curve has %d steps, want 2", len(res.Curve))
	}
	if res.Config.Seed != cfg.Seed || res.Config.Addr != ts.URL {
		t.Errorf("config echo wrong: %+v", res.Config)
	}
	var requests, records int64
	for ep, st := range res.Endpoints {
		if ep != serve.RunPath && ep != serve.StreamPath {
			t.Errorf("unexpected endpoint %q", ep)
		}
		if st.Errors > 0 {
			t.Errorf("%s saw %d transport errors against a healthy local server", ep, st.Errors)
		}
		requests += st.Requests
		records += st.Records
	}
	if requests == 0 || records == 0 {
		t.Fatalf("measured nothing: %d requests, %d records", requests, records)
	}
	// With StreamRatio 0.5 over dozens of requests, both transports must
	// actually be exercised.
	if len(res.Endpoints) != 2 {
		t.Errorf("endpoints = %v, want both transports", res.Endpoints)
	}
	fam := res.LatencyFamily()
	for _, ep := range []string{serve.RunPath, serve.StreamPath} {
		for _, q := range []string{"p50_ms", "p95_ms", "p99_ms"} {
			if v, ok := fam[ep+"|"+q]; !ok || v <= 0 {
				t.Errorf("LatencyFamily[%s|%s] = %g, %v", ep, q, v, ok)
			}
		}
	}

	// The artifact round-trips through the benchgate extractor path.
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseResult(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.LatencyFamily()) != len(fam) {
		t.Errorf("round trip changed the latency family: %v vs %v", back.LatencyFamily(), fam)
	}
}

func TestHarnessRefusesUnhealthyTarget(t *testing.T) {
	cfg := baseConfig()
	cfg.Addr = "http://127.0.0.1:1" // nothing listens here
	cfg.Timeout = 500 * time.Millisecond
	h, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(context.Background()); err == nil {
		t.Fatal("run against a dead target succeeded")
	}
}

func TestParseResultRejectsBadArtifacts(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{not json",
		"unknown field": `{"curve": [], "bogus": 1}`,
		"no curve":      `{"config": {}, "endpoints": {}, "curve": []}`,
		"no successes": `{"config": {}, "endpoints": {"/v1/run": {"requests": 3, "errors": 3}},
		                  "curve": [{"target_rps": 1, "duration_s": 1}]}`,
	}
	for name, in := range cases {
		if _, err := ParseResult(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStatsExactOrderStatistics(t *testing.T) {
	// 1..100 ms, observed out of order: nearest-rank percentiles land on
	// samples exactly, with no bucket interpolation.
	c := &collector{}
	for i := 100; i >= 1; i-- {
		c.observe(outcome{latency: time.Duration(i) * time.Millisecond})
	}
	c.observe(outcome{rejected: true, latency: time.Hour})
	c.observe(outcome{failed: true, latency: time.Hour})
	st := c.stats(time.Second)
	if st.P50Ms != 50 || st.P95Ms != 95 || st.P99Ms != 99 || st.MeanMs != 50.5 {
		t.Errorf("p50/p95/p99/mean = %g/%g/%g/%g ms, want 50/95/99/50.5",
			st.P50Ms, st.P95Ms, st.P99Ms, st.MeanMs)
	}
	if st.Requests != 102 || st.Rejected != 1 || st.Errors != 1 {
		t.Errorf("counts = %+v", st)
	}
	one := &collector{}
	one.observe(outcome{latency: 7 * time.Millisecond})
	if st := one.stats(time.Second); st.P50Ms != 7 || st.P99Ms != 7 {
		t.Errorf("single sample: p50 %g, p99 %g, want 7", st.P50Ms, st.P99Ms)
	}
	if st := new(collector).stats(time.Second); st.P50Ms != 0 || st.MeanMs != 0 {
		t.Errorf("no samples: %+v", st)
	}
}

func TestSendTimesFromDue(t *testing.T) {
	// A request whose scheduled launch is already past — a generator that
	// fell behind — reports at least its lag, not just its own exchange.
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cfg := baseConfig()
	cfg.Addr = ts.URL
	cfg.Scale = 1
	cfg.Platform = "alpha"
	h, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := run.Spec{Workload: "load-hook", Variant: "sequential", Platform: "alpha", Procs: 1, Scale: 1}
	const lag = 300 * time.Millisecond
	for _, endpoint := range []string{serve.RunPath, serve.StreamPath} {
		o := h.send(context.Background(), request{endpoint: endpoint, specs: []run.Spec{spec}}, time.Now().Add(-lag))
		if o.failed || o.rejected || o.records != 1 {
			t.Fatalf("%s: outcome %+v", endpoint, o)
		}
		if o.latency < lag {
			t.Errorf("%s: latency %v for a request due %v ago", endpoint, o.latency, lag)
		}
	}
}
