package benchgate

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkExperiments/table1-8         	       1	    152000 ns/op	         0 key-model-s
BenchmarkExperiments/pt-streams-8     	       1	 310000000 ns/op	         0.19 key-model-s
BenchmarkWorkloadVariants/ta/sequential-8 	       1	  52000000 ns/op	       218.0 model-s
BenchmarkWorkloadVariants/pt/fine-16  	       1	  12345678.5 ns/op	         0.21 model-s
not a benchmark line
PASS
ok  	repro	12.345s
`

// sampleRecords is a `c3ibench -json` envelope with two run records (the
// shape the bench CI job pipes into the model_s source).
const sampleRecords = `{"experiments": ` + sampleExperiments + `, "failed": []}`

// sampleExperiments is the envelope's experiments array.
const sampleExperiments = `[
  {
    "experiment": "table5",
    "title": "Multithreaded Threat Analysis on dual-processor Tera MTA",
    "elapsed_s": 1.5,
    "records": [
      {
        "spec": {"workload": "threat-analysis", "variant": "coarse", "platform": "tera", "procs": 1,
                 "scale": 0.25, "params": {"chunks": 256, "pipelined": 0}},
        "key": "threat-analysis|coarse|tera|p1|s0.25|chunks=256,pipelined=0",
        "model_seconds": 20.5, "paper_seconds": 82.1, "checksum": "0000000000000000",
        "overhead_bytes": 0, "stats": {"cycles": 1, "ops": 1, "mem_refs": 0, "cache_hits": 0,
        "cache_misses": 0, "sync_ops": 0, "atomic_ops": 0, "lock_ops": 0, "barrier_ops": 0,
        "spawns": 1, "max_live": 1, "proc_util": [0.9], "mem_util": 0.1},
        "host_elapsed_ns": 1000000
      },
      {
        "spec": {"workload": "threat-analysis", "variant": "coarse", "platform": "tera", "procs": 2,
                 "scale": 0.25, "params": {"chunks": 256, "pipelined": 0}},
        "key": "threat-analysis|coarse|tera|p2|s0.25|chunks=256,pipelined=0",
        "model_seconds": 11.5, "paper_seconds": 46.2, "checksum": "0000000000000000",
        "overhead_bytes": 0, "stats": {"cycles": 1, "ops": 1, "mem_refs": 0, "cache_hits": 0,
        "cache_misses": 0, "sync_ops": 0, "atomic_ops": 0, "lock_ops": 0, "barrier_ops": 0,
        "spawns": 1, "max_live": 1, "proc_util": [0.85, 0.84], "mem_util": 0.1},
        "host_elapsed_ns": 900000
      }
    ]
  }
]`

// rpt builds a Report from family-keyed entries via the declared table.
func rpt(t *testing.T, fams map[string]map[string]float64) *Report {
	t.Helper()
	r := &Report{}
	for name, entries := range fams {
		if err := r.Set(name, entries); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestFamilyTable(t *testing.T) {
	// The table is the artifact contract: every declared family resolves,
	// has a unit, an extractor and a sane default gate: a ratio above 1, or
	// exact with no ratio.
	for _, f := range Families {
		got, err := FamilyByName(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Unit == "" || got.Extract == nil || got.Exact != (got.Threshold == 0) ||
			(!got.Exact && got.Threshold <= 1) {
			t.Errorf("family %s is underdeclared: %+v", f.Name, got)
		}
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Error("undeclared family resolved")
	}
	if err := (&Report{}).Set("nope", map[string]float64{"a": 1}); err == nil {
		t.Error("Set accepted an undeclared family")
	}
}

func TestParseNormalizesNames(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkExperiments/table1":             152000,
		"BenchmarkExperiments/pt-streams":         310000000,
		"BenchmarkWorkloadVariants/ta/sequential": 52000000,
		"BenchmarkWorkloadVariants/pt/fine":       12345678.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %g, want %g (GOMAXPROCS suffix must be stripped)", name, got[name], ns)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Error("no benchmark lines accepted")
	}
}

func TestParseKeepsMinimumOfRepeats(t *testing.T) {
	// A -count N run repeats each benchmark; the artifact keeps the
	// minimum, the standard noise floor for 1-iteration measurements.
	out := `BenchmarkX/a-8 1 300 ns/op
BenchmarkX/a-8 1 100 ns/op
BenchmarkX/a-8 1 200 ns/op
`
	got, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX/a"] != 100 {
		t.Errorf("BenchmarkX/a = %g, want the minimum 100", got["BenchmarkX/a"])
	}
}

func TestParseRecords(t *testing.T) {
	ms, err := ParseRecords(strings.NewReader(sampleRecords))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"threat-analysis|coarse|tera|p1|s0.25|chunks=256,pipelined=0": 82.1,
		"threat-analysis|coarse|tera|p2|s0.25|chunks=256,pipelined=0": 46.2,
	}
	if len(ms) != len(want) {
		t.Fatalf("parsed %d model_s entries, want %d: %v", len(ms), len(want), ms)
	}
	for key, v := range want {
		if ms[key] != v {
			t.Errorf("%s = %g, want %g", key, ms[key], v)
		}
	}
}

func TestParseRecordsRejectsGarbage(t *testing.T) {
	if _, err := ParseRecords(strings.NewReader("[]")); err == nil {
		t.Error("empty records accepted")
	}
	if _, err := ParseRecords(strings.NewReader(sampleExperiments)); err == nil {
		t.Error("bare experiments array accepted without its envelope")
	}
	if _, err := ParseRecords(strings.NewReader(`{"experiments": [], "failed": []}`)); err == nil {
		t.Error("empty envelope accepted")
	}
	if _, err := ParseRecords(strings.NewReader("{not json")); err == nil {
		t.Error("malformed records accepted")
	}
	if _, err := ParseRecords(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestParseRecordsRejectsIncompleteSweep(t *testing.T) {
	// An envelope whose failure manifest is non-empty must not gate: the
	// missing experiments' records would silently vanish from the model_s
	// family and the comparison would pass on a subset.
	in := `{"experiments": ` + sampleExperiments + `,
	        "failed": [{"experiment": "table9", "error": "engine exploded"},
	                   {"experiment": "pt-streams", "error": "boom"}]}`
	_, err := ParseRecords(strings.NewReader(in))
	if err == nil {
		t.Fatal("incomplete artifact accepted")
	}
	for _, name := range []string{"table9", "pt-streams"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name failed experiment %s", err, name)
		}
	}
}

func TestParseLoad(t *testing.T) {
	// A minimal c3iload artifact: one endpoint measured, one step.
	artifact := `{
	  "config": {"addr": "http://x", "seed": 1, "steps_rps": "50", "step_duration_s": 1,
	             "warmup_s": 0, "mix": {"cold": 0, "warm": 0, "cached": 1},
	             "batch_sizes": "1=1", "workloads": "threat-analysis=1", "stream_ratio": 0,
	             "scale": 0.02, "platform": "tera", "procs": 1, "validate": false,
	             "max_inflight": 16},
	  "endpoints": {"/v1/run": {"requests": 50, "errors": 0, "rejected_429": 0, "dropped": 0,
	                "specs": 50, "records": 50, "spec_errors": 0, "achieved_rps": 49.8,
	                "throughput_records_per_s": 49.8, "p50_ms": 0.6, "p95_ms": 1.4,
	                "p99_ms": 2.8, "mean_ms": 0.7}},
	  "curve": [{"target_rps": 50, "duration_s": 1, "requests": 50, "errors": 0,
	             "rejected_429": 0, "dropped": 0, "specs": 50, "records": 50,
	             "spec_errors": 0, "achieved_rps": 49.8, "throughput_records_per_s": 49.8,
	             "p50_ms": 0.6, "p95_ms": 1.4, "p99_ms": 2.8, "mean_ms": 0.7}]
	}`
	got, err := ParseLoad(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"/v1/run|p50_ms": 0.6, "/v1/run|p95_ms": 1.4, "/v1/run|p99_ms": 2.8,
	}
	if len(got) != len(want) {
		t.Fatalf("serve_latency = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := ParseLoad(strings.NewReader(`{"curve": []}`)); err == nil {
		t.Error("artifact without a curve accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	bench, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ParseRecords(strings.NewReader(sampleRecords))
	if err != nil {
		t.Fatal(err)
	}
	rep := rpt(t, map[string]map[string]float64{
		FamilyBenchmarks: bench,
		FamilyModelS:     model,
	})
	path := filepath.Join(t.TempDir(), "BENCH_pr.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rep.Len() {
		t.Fatalf("round trip lost entries: %d, want %d", got.Len(), rep.Len())
	}
	for _, fam := range FamilyNames() {
		for name, v := range rep.Family(fam) {
			if got.Family(fam)[name] != v {
				t.Errorf("%s %s = %g after round trip, want %g", fam, name, got.Family(fam)[name], v)
			}
		}
	}
}

func TestArtifactFormatIsStableAndClosed(t *testing.T) {
	// The on-disk shape is the pre-table flat object — committed baselines
	// from the two-family era must load unchanged...
	legacy := `{"benchmarks": {"BenchmarkX": 100}, "model_s": {"k": 2.5}}`
	var r Report
	if err := json.Unmarshal([]byte(legacy), &r); err != nil {
		t.Fatal(err)
	}
	if r.Family(FamilyBenchmarks)["BenchmarkX"] != 100 || r.Family(FamilyModelS)["k"] != 2.5 {
		t.Errorf("legacy artifact decoded wrong: %v / %v",
			r.Family(FamilyBenchmarks), r.Family(FamilyModelS))
	}
	// ...encoding keeps family order and sorted keys...
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"benchmarks":{"BenchmarkX":100},"model_s":{"k":2.5}}`; string(out) != want {
		t.Errorf("encoded %s, want %s", out, want)
	}
	// ...and undeclared top-level keys are rejected, not silently kept as an
	// ungated family.
	if err := json.Unmarshal([]byte(`{"benchmurks": {"a": 1}}`), &r); err == nil {
		t.Error("undeclared family key accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"benchmurks": {"a": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted an undeclared family")
	}
}

func TestCompareGates(t *testing.T) {
	base := rpt(t, map[string]map[string]float64{FamilyBenchmarks: {
		"a": 100, "b": 100, "c": 100, "gone": 50,
	}})
	cur := rpt(t, map[string]map[string]float64{FamilyBenchmarks: {
		"a":   150, // 1.5x — inside a 2x gate
		"b":   250, // 2.5x — regression
		"c":   40,  // improvement
		"new": 1,   // added
	}})
	c, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Compared != 3 {
		t.Errorf("Compared = %d, want 3", c.Compared)
	}
	if len(c.Regressions) != 1 || c.Regressions[0].Name != "b" {
		t.Fatalf("Regressions = %+v, want just b", c.Regressions)
	}
	if r := c.Regressions[0].Ratio; r < 2.49 || r > 2.51 {
		t.Errorf("ratio = %g, want 2.5", r)
	}
	if len(c.Missing) != 1 || c.Missing[0] != "benchmarks: gone" {
		t.Errorf("Missing = %v", c.Missing)
	}
	if len(c.Added) != 1 || c.Added[0] != "benchmarks: new" {
		t.Errorf("Added = %v", c.Added)
	}
	var sb strings.Builder
	if c.Render(&sb) {
		t.Error("gate passed with a regression")
	}
	if !strings.Contains(sb.String(), "REGRESSED [benchmarks] b") {
		t.Errorf("verdict %q does not name the regression", sb.String())
	}

	ok, err := Compare(base, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if !ok.Render(&sb) {
		t.Error("identical reports failed the gate")
	}
	// Missing and added benchmarks alone must not fail the gate.
	only := rpt(t, map[string]map[string]float64{FamilyBenchmarks: {"a": 100}})
	miss, err := Compare(base, only, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if !miss.Render(&sb) {
		t.Error("missing benchmarks failed the gate — they are informational")
	}
}

func TestCompareGatesModelS(t *testing.T) {
	// The acceptance scenario for the model family: simulated seconds
	// regress 3× while host ns/op is flat. ns/op alone would pass; the
	// model_s family must fail the gate.
	key := "threat-analysis|coarse|tera|p1|s0.25|chunks=256,pipelined=0"
	base := rpt(t, map[string]map[string]float64{
		FamilyBenchmarks: {"BenchmarkExperiments/table5": 1e9},
		FamilyModelS:     {key: 82.0},
	})
	cur := rpt(t, map[string]map[string]float64{
		FamilyBenchmarks: {"BenchmarkExperiments/table5": 1e9}, // flat host time
		FamilyModelS:     {key: 246.0},                         // 3× simulated time
	})
	c, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Compared != 2 {
		t.Errorf("Compared = %d, want 2 (one per family)", c.Compared)
	}
	if len(c.Regressions) != 1 {
		t.Fatalf("Regressions = %+v, want exactly the model_s entry", c.Regressions)
	}
	r := c.Regressions[0]
	if r.Family != FamilyModelS || r.Name != key {
		t.Errorf("regression = %+v, want model_s on %s", r, key)
	}
	if r.Ratio < 2.9 || r.Ratio > 3.1 {
		t.Errorf("ratio = %g, want ≈ 3", r.Ratio)
	}
	var sb strings.Builder
	if c.Render(&sb) {
		t.Error("gate passed a 3× model_s regression")
	}
	if !strings.Contains(sb.String(), "model_s") {
		t.Errorf("verdict %q does not name the model_s family", sb.String())
	}

	// Simulated seconds are deterministic, so the gate is exact: a fall, a
	// one-ulp rise and a one-ulp fall fail it too, and only the baseline's
	// own value passes.
	for _, tc := range []struct {
		cur  float64
		pass bool
	}{
		{60.0, false},
		{math.Nextafter(82.0, math.Inf(1)), false},
		{math.Nextafter(82.0, math.Inf(-1)), false},
		{82.0, true},
	} {
		if err := cur.Set(FamilyModelS, map[string]float64{key: tc.cur}); err != nil {
			t.Fatal(err)
		}
		c, err := Compare(base, cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb.Reset()
		if got := c.Render(&sb); got != tc.pass {
			t.Errorf("model_s 82 → %v: gate passed = %v, want %v:\n%s", tc.cur, got, tc.pass, sb.String())
		}
		if !tc.pass && !strings.Contains(sb.String(), "exact gate") {
			t.Errorf("verdict %q does not say the gate is exact", sb.String())
		}
	}
}

func TestCompareGatesServeLatency(t *testing.T) {
	// The serving gate: a slowed server's percentiles blow through the
	// serve_latency threshold even with host benchmarks flat.
	base := rpt(t, map[string]map[string]float64{FamilyServeLatency: {
		"/v1/run|p50_ms": 0.5, "/v1/run|p95_ms": 1.2, "/v1/run|p99_ms": 3.0,
	}})
	slow := rpt(t, map[string]map[string]float64{FamilyServeLatency: {
		"/v1/run|p50_ms": 250.6, "/v1/run|p95_ms": 252.1, "/v1/run|p99_ms": 254.0,
	}})
	c, err := Compare(base, slow, map[string]float64{FamilyServeLatency: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Compared != 3 || len(c.Regressions) != 3 {
		t.Fatalf("slowed server: compared %d, regressions %+v", c.Compared, c.Regressions)
	}
	var sb strings.Builder
	if c.Render(&sb) {
		t.Error("gate passed a slowed server")
	}
	if !strings.Contains(sb.String(), "serve_latency") || !strings.Contains(sb.String(), "ms") {
		t.Errorf("verdict %q does not carry the family and unit", sb.String())
	}

	// Plausible jitter inside the override gate must pass.
	jitter := rpt(t, map[string]map[string]float64{FamilyServeLatency: {
		"/v1/run|p50_ms": 1.1, "/v1/run|p95_ms": 2.9, "/v1/run|p99_ms": 9.1,
	}})
	ok, err := Compare(base, jitter, map[string]float64{FamilyServeLatency: 5})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if !ok.Render(&sb) {
		t.Error("in-gate latency jitter failed")
	}
}

func TestCompareFamiliesIndependent(t *testing.T) {
	// A model_s-only baseline against a benchmarks-only current: nothing
	// overlaps, nothing regresses, everything is informational.
	base := rpt(t, map[string]map[string]float64{FamilyModelS: {"k": 1}})
	cur := rpt(t, map[string]map[string]float64{FamilyBenchmarks: {"b": 1}})
	c, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Compared != 0 || len(c.Regressions) != 0 {
		t.Errorf("disjoint families compared: %+v", c)
	}
	if len(c.Missing) != 1 || c.Missing[0] != "model_s: k" {
		t.Errorf("Missing = %v", c.Missing)
	}
	if len(c.Added) != 1 || c.Added[0] != "benchmarks: b" {
		t.Errorf("Added = %v", c.Added)
	}
}

func TestCompareRejectsBadOverrides(t *testing.T) {
	r := rpt(t, map[string]map[string]float64{FamilyBenchmarks: {"a": 1}})
	if _, err := Compare(r, r, map[string]float64{FamilyBenchmarks: 1.0}); err == nil {
		t.Error("threshold 1.0 accepted")
	}
	if _, err := Compare(r, r, map[string]float64{"benchmurks": 2.0}); err == nil {
		t.Error("override for an undeclared family accepted")
	}
	if _, err := Compare(r, r, map[string]float64{FamilyModelS: 1.5}); err == nil {
		t.Error("override for the exact model_s family accepted")
	}
}
