package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/run"
)

func TestScheduleIsDrawnFromTheSeed(t *testing.T) {
	combos, err := mixCombos()
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(7, 2*time.Second, combos, 1000)
	b := schedule(7, 2*time.Second, combos, 1000)
	if len(a) != int(2*mixRate) {
		t.Fatalf("schedule has %d requests, want %d", len(a), int(2*mixRate))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew two different schedules")
	}
	if c := schedule(8, 2*time.Second, combos, 1000); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
	fresh, total := 0, 0
	for i, r := range a {
		if want := time.Duration(float64(i) / mixRate * float64(time.Second)); r.due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.due, want)
		}
		for _, s := range r.specs {
			total++
			if s.Params[seqParam] > mixCachedPerCmb {
				fresh++
			}
		}
	}
	if share := float64(fresh) / float64(total); share < 0.1 || share > 0.3 {
		t.Errorf("fresh share %.2f, want about %.2f", share, mixFresh)
	}
}

func TestPaperScalesAreDrawnFromTheSeed(t *testing.T) {
	seen := map[float64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		a, b := paperMTA.pick(seed), paperMTA.pick(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d picked %v then %v", seed, a, b)
		}
		seen[a["plot-track-assignment"]] = true
	}
	if len(seen) != len(paperMTA.scales[0].scales) {
		t.Errorf("50 seeds picked %d of the %d declared scales", len(seen), len(paperMTA.scales[0].scales))
	}
	if n := len(paperMTA.combinations()); n != 3 {
		t.Errorf("paper-mta has %d scale combinations, want 3", n)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)},  // overlaps a: [10,60] counts once
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // only [90,100] lies inside root
		{Name: "a1", Parent: 1, Start: ms(15), End: ms(20)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(40), ms(25), ms(30), ms(30), ms(5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRequestSpansLinkByID(t *testing.T) {
	spans := []span{
		{Name: "shard", ReqID: "r1", Parent: -1, Start: 3, End: 5},
		{Name: "request", ReqID: "r1", Parent: -1, Start: 0, End: 10},
		{Name: "router", ReqID: "r1", Parent: -1, Start: 1, End: 8},
		{Name: "shard", ReqID: "r1", Parent: -1, Start: 4, End: 7},
		{Name: "router", ReqID: "r2", Parent: -1, Start: 1, End: 2},
	}
	linkByRequest(spans, map[string]string{"router": "request", "shard": "router"})
	var parents []int
	for _, s := range spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{2, -1, 1, 2, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	if self := selfTimes(spans); self[2] != 3 || self[1] != 3 {
		t.Errorf("router self %v, request self %v; want 3 and 3", self[2], self[1])
	}
}

// sampleRecords are two Records as an experiment would return them.
func sampleRecords() []run.Record {
	spec := run.Spec{Workload: "terrain-masking", Variant: "coarse", Platform: "exemplar", Procs: 4, Scale: 0.05}
	rec := run.Record{
		Spec: spec, Key: spec.Key(), ModelSeconds: 1.25, PaperSeconds: 25, Checksum: 0xfeed,
		Stats:       machine.Stats{Cycles: 1e6, MemRefs: 500, CacheHits: 400, CacheMisses: 100, LockOps: 8, ProcUtil: []float64{0.5}},
		HostElapsed: time.Millisecond,
	}
	second := rec
	second.Spec.Procs = 8
	second.Key = second.Spec.Key()
	return []run.Record{rec, second}
}

func TestDigestRejectsPerturbedRecords(t *testing.T) {
	recs := sampleRecords()
	ref := digestFile{Experiments: map[string][]recordDigest{digestKey("table10", recs): digestsOf(recs)}}
	if bad := ref.mismatches("table10", recs); bad != 0 {
		t.Fatalf("unperturbed records: %d mismatches", bad)
	}
	host := sampleRecords()
	host[0].HostElapsed = time.Hour
	if bad := ref.mismatches("table10", host); bad != 0 {
		t.Errorf("host time alone changed %d records", bad)
	}
	for name, perturb := range map[string]func(r *run.Record){
		"model seconds": func(r *run.Record) { r.ModelSeconds *= 1.0000001 },
		"checksum":      func(r *run.Record) { r.Checksum++ },
		"sync ops":      func(r *run.Record) { r.Stats.SyncOps++ },
		"cache misses":  func(r *run.Record) { r.Stats.CacheMisses-- },
		"utilization":   func(r *run.Record) { r.Stats.ProcUtil = []float64{0.51} },
	} {
		p := sampleRecords()
		perturb(&p[1])
		if bad := ref.mismatches("table10", p); bad != 1 {
			t.Errorf("%s perturbed: %d mismatches, want 1", name, bad)
		}
	}
	if bad := ref.mismatches("table10", recs[:1]); bad != 1 {
		t.Errorf("a missing record: %d mismatches, want 1", bad)
	}
	other := sampleRecords()
	other[0].Spec.Scale, other[1].Spec.Scale = 0.1, 0.1
	if bad := ref.mismatches("table10", other); bad != 2 {
		t.Errorf("records at an undeclared scale: %d mismatches, want 2", bad)
	}
}

func TestCommittedDigestsCoverEveryDeclaredScale(t *testing.T) {
	ref, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if ref.SimProbeProcs < 1 {
		t.Errorf("sim probe runs %d procs", ref.SimProbeProcs)
	}
	for _, pw := range []paperWorkload{paperMTA, paperSMP} {
		for _, id := range pw.experiments {
			n := 0
			for key := range ref.Experiments {
				if len(key) > len(id) && key[:len(id)+1] == id+"@" {
					n++
				}
			}
			want := 1
			for _, s := range pw.scales {
				if s.workload == experimentWorkload[id] {
					want = len(s.scales)
				}
			}
			if n != want {
				t.Errorf("%s: %d reference entries, want %d", id, n, want)
			}
		}
	}
}

// experimentWorkload is the registered workload each benchmark experiment
// runs.
var experimentWorkload = map[string]string{
	"pt-streams": "plot-track-assignment",
	"table11":    "terrain-masking",
	"table9":     "terrain-masking",
	"table10":    "terrain-masking",
}

// declaredMetric is a metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the metric test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func TestPrintedMetricsAreTheDeclaredOnes(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		decl []declaredMetric
		defs []metricDef
	}{
		{"end_to_end", bf.EndToEnd, endToEnd},
		{"per_layer", bf.PerLayer, perLayer},
	} {
		values := map[string]float64{}
		for _, d := range c.defs {
			values[d.name] = 1
		}
		res, err := render(outcome{values: values, attempted: 1}, c.defs)
		if err != nil {
			t.Fatal(err)
		}
		var printed, declared []declaredMetric
		for name, m := range res.Metrics {
			printed = append(printed, declaredMetric{name, m.Unit})
		}
		declared = append(declared, c.decl...)
		sortMetrics(printed)
		sortMetrics(declared)
		if !reflect.DeepEqual(printed, declared) {
			t.Errorf("%s: printed %v, declared %v", c.what, printed, declared)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads; the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %s, which the benchmark does not run", w.Name)
		}
	}
}

func sortMetrics(m []declaredMetric) {
	sort.Slice(m, func(i, j int) bool { return m[i].Name < m[j].Name })
}

func TestRenderRefusesAMissingMetric(t *testing.T) {
	if _, err := render(outcome{values: map[string]float64{"wall_s": 1}, attempted: 1}, endToEnd); err == nil {
		t.Error("render accepted an outcome without setup_s")
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{0.5: 5, 0.99: 10, 0.1: 1, 0.11: 2, 1: 10} {
		if got := percentile(s, q); got != want {
			t.Errorf("p%g = %g, want %g", q*100, got, want)
		}
	}
	if got := median(s); got != 5.5 {
		t.Errorf("median %g, want 5.5", got)
	}
}
