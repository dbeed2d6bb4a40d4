package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/c3i/suite"
	"repro/internal/router"
	"repro/internal/run"
)

func TestSpecSpellingsShareOneKey(t *testing.T) {
	// The router picks a Spec's shard by hashing its Key, so one run must
	// render one Key whether or not its defaults are spelled out; otherwise
	// two spellings can land on different shards and be computed twice.
	bare := run.Spec{Workload: "threat-analysis", Variant: "coarse", Platform: "tera", Procs: 2}
	full := bare
	full.Scale = 0.25
	full.Params = suite.Params{"chunks": 16, "pipelined": 0}
	if b, f := bare.Key(), full.Key(); b != f {
		t.Errorf("Key() = %q with defaults omitted, %q with them spelled out", b, f)
	}
}

func TestParseShardsChecksWorkloadNames(t *testing.T) {
	// A misspelled constraint would start a shard that serves nothing, and
	// every Spec of the intended workload would fail at request time.
	if _, err := parseShards("http://h1:8651=threat-analysys"); err == nil ||
		!strings.Contains(err.Error(), "threat-analysys") || !strings.Contains(err.Error(), "http://h1:8651") {
		t.Errorf("misspelled workload: err = %v, want one naming the entry and the workload", err)
	}
	got, err := parseShards("http://h1:8651=threat-analysis+terrain-masking,http://h2:8651")
	if err != nil {
		t.Fatal(err)
	}
	want := []router.Shard{
		{URL: "http://h1:8651", Workloads: []string{"threat-analysis", "terrain-masking"}},
		{URL: "http://h2:8651"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseShards = %+v, want %+v", got, want)
	}
}
