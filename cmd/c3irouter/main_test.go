package main

import (
	"testing"

	"repro/internal/c3i/suite"
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
