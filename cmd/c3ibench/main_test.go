package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	_ "repro/internal/experiments" // register the shipped workloads
	"repro/internal/obs"
	"repro/internal/run"
)

func TestWriteRecordSetEnvelope(t *testing.T) {
	// A partial-failure sweep must name its failures in the envelope — the
	// CI run-records step gates on `.failed == []`, so an incomplete
	// artifact can no longer masquerade as a complete one.
	recorded := []run.ExperimentRecords{{
		Experiment: "table5",
		Title:      "Multithreaded Threat Analysis on dual-processor Tera MTA",
		ElapsedS:   1.25,
		Records:    []run.Record{{Key: "threat-analysis|coarse|tera|p2|s0.25|chunks=256,pipelined=0"}},
	}}
	failed := []run.ExperimentFailure{{Experiment: "table9", Error: "engine exploded"}}

	var sb strings.Builder
	if err := writeRecordSet(&sb, recorded, failed); err != nil {
		t.Fatal(err)
	}
	var set run.RecordSet
	if err := json.Unmarshal([]byte(sb.String()), &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Experiments) != 1 || set.Experiments[0].Experiment != "table5" {
		t.Errorf("experiments = %+v", set.Experiments)
	}
	if len(set.Failed) != 1 || set.Failed[0].Experiment != "table9" ||
		!strings.Contains(set.Failed[0].Error, "exploded") {
		t.Errorf("failure manifest = %+v, want table9/engine exploded", set.Failed)
	}
}

func TestParseGridFlag(t *testing.T) {
	name, restrict, err := parseGridFlag("hypothesis-testing")
	if err != nil || name != "hypothesis-testing" || restrict != nil {
		t.Errorf("bare form: name=%q restrict=%v err=%v", name, restrict, err)
	}
	name, restrict, err = parseGridFlag("hypothesis-testing=gate:24,48;net: 0")
	if err != nil || name != "hypothesis-testing" {
		t.Fatalf("restricted form: name=%q err=%v", name, err)
	}
	want := map[string][]float64{"gate": {24, 48}, "net": {0}}
	if !reflect.DeepEqual(restrict, want) {
		t.Errorf("restrict = %v, want %v", restrict, want)
	}
	for flagVal, wantSub := range map[string]string{
		"=gate:24":              "need",         // empty workload name
		"ht=gate":               "axis",         // restriction without values
		"ht=gate:24;gate:48":    "twice",        // duplicate axis
		"ht=gate:24,twentyfive": "not a number", // unparseable value
	} {
		if _, _, err := parseGridFlag(flagVal); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("parseGridFlag(%q) err = %v, want mention of %q", flagVal, err, wantSub)
		}
	}
}

func TestGridSweepJSONEnvelope(t *testing.T) {
	// A restricted sweep must land one validated record per grid point in a
	// benchgate-parseable envelope with an empty failure manifest, and the
	// host wall clock zeroed so the artifact is deterministic.
	var sb strings.Builder
	err := gridSweep(&sb, "hypothesis-testing=scale:0.05;gate:24,48;prune:0;net:0,1",
		"", "tera", 2, run.NewRunner(1), true, false)
	if err != nil {
		t.Fatal(err)
	}
	var set run.RecordSet
	if err := json.Unmarshal([]byte(sb.String()), &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Failed) != 0 {
		t.Errorf("failed = %+v, want empty", set.Failed)
	}
	if len(set.Experiments) != 1 || set.Experiments[0].Experiment != "grid:hypothesis-testing" {
		t.Fatalf("experiments = %+v", set.Experiments)
	}
	recs := set.Experiments[0].Records
	if len(recs) != 4 {
		t.Fatalf("got %d records, want one per grid point (4)", len(recs))
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if rec.HostElapsed != 0 {
			t.Errorf("%s: host_elapsed_ns = %d, want 0 (deterministic envelope)", rec.Key, rec.HostElapsed)
		}
		if rec.Checksum == 0 {
			t.Errorf("%s: zero checksum — grid points must validate", rec.Key)
		}
		if seen[rec.Key] {
			t.Errorf("duplicate record key %q", rec.Key)
		}
		seen[rec.Key] = true
	}
}

func TestGridSweepTableHasAxisColumns(t *testing.T) {
	var sb strings.Builder
	err := gridSweep(&sb, "hypothesis-testing=scale:0.05;gate:24;prune:0;net:0",
		"", "tera", 2, run.NewRunner(1), false, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"scale", "gate", "prune", "net", "Checksum"} {
		if !strings.Contains(out, col) {
			t.Errorf("table output missing column %q:\n%s", col, out)
		}
	}
}

func TestGridSweepWritesStatsAndProfiles(t *testing.T) {
	// A grid sweep ends in the same epilogue as an experiment sweep: the
	// metrics snapshot and the heap profile are written.
	dir := t.TempDir()
	statsPath, memPath := filepath.Join(dir, "stats.json"), filepath.Join(dir, "mem.out")
	code, _, errOut := runC3ibench("-grid", "hypothesis-testing=scale:0.05;gate:24;prune:0;net:0",
		"-stats", statsPath, "-memprofile", memPath)
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, errOut)
	}
	if fi, err := os.Stat(memPath); err != nil || fi.Size() == 0 {
		t.Errorf("-memprofile: %v", err)
	}
	buf, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	var execs int64 = -1
	for _, c := range snap.Counters {
		if c.Name == "run_executions_total" && c.Labels["workload"] == "hypothesis-testing" {
			execs = c.Value
		}
	}
	if execs != 1 {
		t.Errorf("run_executions_total{workload=\"hypothesis-testing\"} = %d, want 1 (one grid point)", execs)
	}
}

// failingExecutor fails every batch, as an unreachable fleet does.
type failingExecutor struct{}

func (failingExecutor) Run(context.Context, run.Spec) (run.Record, error) {
	return run.Record{}, errors.New("fleet unreachable")
}

func (failingExecutor) RunAll(context.Context, []run.Spec) ([]run.Record, error) {
	return nil, errors.New("fleet unreachable")
}

func TestGridSweepExecutionFailureEmitsFailedManifest(t *testing.T) {
	// When the executor dies mid-sweep the JSON contract still holds: an
	// envelope with an explicit failure entry, and an error main maps to
	// exit 1 (execution) rather than exit 2 (usage).
	var sb strings.Builder
	err := gridSweep(&sb, "hypothesis-testing=scale:0.05;gate:24;prune:0;net:0",
		"", "tera", 2, failingExecutor{}, true, false)
	var se *sweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *sweepError", err)
	}
	var set run.RecordSet
	if err := json.Unmarshal([]byte(sb.String()), &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Experiments) != 0 {
		t.Errorf("experiments = %+v, want empty", set.Experiments)
	}
	if len(set.Failed) != 1 || !strings.Contains(set.Failed[0].Error, "fleet unreachable") {
		t.Errorf("failure manifest = %+v", set.Failed)
	}

	// Usage-shaped failures (an undeclared value) are not sweepErrors.
	err = gridSweep(&sb, "hypothesis-testing=gate:17", "", "tera", 2, run.NewRunner(1), true, false)
	if err == nil || errors.As(err, &se) {
		t.Errorf("undeclared grid value: err = %v, want a plain (usage) error", err)
	}
}

func TestWriteRecordSetEmptySweepStaysGateable(t *testing.T) {
	// An all-failed (or empty) sweep still emits explicit arrays: `.failed`
	// and `.experiments` must be [] / populated, never null, so jq checks
	// do not need null guards.
	var sb strings.Builder
	if err := writeRecordSet(&sb, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(sb.String())
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(got), &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"experiments", "failed"} {
		v, ok := raw[field]
		if !ok {
			t.Errorf("envelope %s missing field %q", got, field)
			continue
		}
		if string(v) != "[]" {
			t.Errorf("field %q = %s, want []", field, v)
		}
	}
}

// sweepArgs is a small sweep with an unknown ID in the middle; table7
// reuses table2's and table5's cells.
var sweepArgs = []string{"-run", "table1,table2,table5,table7,autopar,no-such-experiment,ro-sequential",
	"-scale-ta", "0.05", "-scale-ro", "0.05"}

// runC3ibench runs the command in process and returns its exit status,
// stdout and stderr.
func runC3ibench(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := c3ibench(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSweepJobsMatchSerial(t *testing.T) {
	// Cells run -jobs at a time on the command's own Runner; the rendered
	// tables and the Records (host time aside) must not depend on it. An
	// unknown ID is reported in place, the experiments after it still run,
	// and the exit status is 1.
	if testing.Short() {
		t.Skip("runs a sweep four times")
	}
	var rendered, records []string
	for _, jobs := range []string{"1", "4"} {
		code, out, errOut := runC3ibench(append(sweepArgs, "-jobs", jobs)...)
		if code != 1 {
			t.Errorf("-jobs %s: exit status %d, want 1 for the unknown ID", jobs, code)
		}
		var order []string
		for _, line := range strings.Split(errOut, "\n") {
			if id, ok := strings.CutPrefix(line, "["); ok {
				order = append(order, strings.Fields(id)[0])
			} else if strings.Contains(line, "no-such-experiment: ") {
				order = append(order, "no-such-experiment")
			}
		}
		if want := strings.Split(sweepArgs[1], ","); !slices.Equal(order, want) {
			t.Errorf("-jobs %s: reported %v, want %v in place", jobs, order, want)
		}
		rendered = append(rendered, out)

		code, out, _ = runC3ibench(append(sweepArgs, "-jobs", jobs, "-json")...)
		if code != 1 {
			t.Errorf("-jobs %s -json: exit status %d, want 1", jobs, code)
		}
		var set run.RecordSet
		if err := json.Unmarshal([]byte(out), &set); err != nil {
			t.Fatal(err)
		}
		if len(set.Failed) != 1 || set.Failed[0].Experiment != "no-such-experiment" {
			t.Errorf("-jobs %s: failure manifest %+v", jobs, set.Failed)
		}
		for i := range set.Experiments {
			set.Experiments[i].ElapsedS = 0
			for j := range set.Experiments[i].Records {
				set.Experiments[i].Records[j].HostElapsed = 0
			}
		}
		buf, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, string(buf))
	}
	if rendered[0] != rendered[1] {
		t.Error("-jobs 4 renders differently from -jobs 1")
	}
	if records[0] != records[1] {
		t.Error("-jobs 4 Records differ from -jobs 1")
	}
}
