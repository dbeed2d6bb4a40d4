package benchgate

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/load"
)

// Canonical family names — the artifact's top-level JSON keys and the
// `-family name=ratio` flag vocabulary.
const (
	FamilyBenchmarks   = "benchmarks"
	FamilyModelS       = "model_s"
	FamilyServeLatency = "serve_latency"
)

// Family declares one metric family: its artifact key, the unit verdicts are
// rendered with, the default regression threshold, and the extractor that
// builds the family's entries from its source during `-parse`. The gate is
// table-driven — adding a family here is the whole integration: the CLI's
// `-src`/`-family` flags, artifact encoding, comparison and rendering all
// enumerate this table.
type Family struct {
	// Name keys the family in artifacts, flags and verdicts.
	Name string
	// Unit names the measurement for human-readable verdicts ("ns/op").
	Unit string
	// Threshold is the default gate ratio (> 1): current/base beyond it is a
	// regression. Overridable per run with `-family name=ratio`.
	Threshold float64
	// Exact declares a deterministic family: an entry that differs from the
	// baseline at all, up or down, is a regression, and no threshold or
	// override applies.
	Exact bool
	// Source describes the input `-src name=path` expects, for usage text.
	Source string
	// Extract parses that source into the family's name → value entries.
	Extract func(r io.Reader) (map[string]float64, error)
}

// Families is the declared family table, in artifact/verdict order.
//
//   - benchmarks: host ns/op from `go test -bench` output. Host time on
//     shared, noisy runners, so the default gate is deliberately generous
//     and the committed baseline may come from different hardware.
//   - model_s: simulated paper-scale seconds from `c3ibench -json` run
//     records. Deterministic for a given source tree, so the gate is exact:
//     any change, even a fall or one ulp, is a model change, which must come
//     with a new baseline, even when host time is flat.
//   - serve_latency: client-side serving-latency percentiles (milliseconds,
//     per endpoint) from a `c3iload` artifact. Host-timing dependent like
//     ns/op, hence a generous default — but a deliberately slowed server
//     blows through any plausible threshold, which is what the gate is for.
var Families = []Family{
	{
		Name: FamilyBenchmarks, Unit: "ns/op", Threshold: 2.0,
		Source:  "`go test -bench` output",
		Extract: Parse,
	},
	{
		Name: FamilyModelS, Unit: "s", Exact: true,
		Source:  "`c3ibench -json` records",
		Extract: ParseRecords,
	},
	{
		Name: FamilyServeLatency, Unit: "ms", Threshold: 2.0,
		Source:  "`c3iload` artifact",
		Extract: ParseLoad,
	},
}

// FamilyByName resolves a declared family.
func FamilyByName(name string) (*Family, error) {
	for i := range Families {
		if Families[i].Name == name {
			return &Families[i], nil
		}
	}
	return nil, fmt.Errorf("benchgate: unknown family %q (declared: %s)", name, strings.Join(FamilyNames(), ", "))
}

// FamilyNames lists the declared family names in table order.
func FamilyNames() []string {
	names := make([]string, len(Families))
	for i, f := range Families {
		names[i] = f.Name
	}
	return names
}

// ParseLoad extracts the serve_latency family from a `c3iload` JSON
// artifact: per-endpoint p50/p95/p99 in milliseconds, keyed
// "<endpoint>|p50_ms". The artifact's own validation applies — no curve or
// no successfully measured endpoint rejects, so the gate can never compare
// against a run that measured nothing.
func ParseLoad(r io.Reader) (map[string]float64, error) {
	res, err := load.ParseResult(r)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	return res.LatencyFamily(), nil
}
