package hypothesis

import (
	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// scoreDefaults are the tunables every variant shares: the gating-window
// radius and the prune threshold (per-mille of the best score).
var scoreDefaults = suite.Params{"gate": DefaultGate, "prune": DefaultPrune}

// paramsFrom maps registry params onto the shared scoring controls.
func paramsFrom(p suite.Params) Params {
	return Params{Gate: p["gate"], Prune: p["prune"]}
}

func output(out *Output, s *Scenario) suite.Output {
	return suite.Output{
		Checksum:      Checksum(out, len(s.Hyps), len(s.Obs)),
		OverheadBytes: out.PartialBytes,
	}
}

func init() {
	suite.MustRegister(&suite.Workload{
		Name:             "hypothesis-testing",
		Key:              "ht",
		FileTag:          "hypo",
		Title:            "Hypothesis Testing",
		Order:            5,
		PaperUnits:       DefaultObs,
		UnitName:         "observations/scenario",
		DefaultScale:     0.25,
		DataScale:        0.1,
		SmallScale:       0.05,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential", "coarse", "fine"},
		Generate: func(scale float64) []suite.Scenario {
			return suite.Scenarios(Suite(scale))
		},
		New: func() suite.Scenario { return &Scenario{} },
		// The declared scenario grid: the problem shapes the conformance
		// tests cover and `c3ibench -grid hypothesis-testing` sweeps. The
		// defaults pin the paper point (the registered default scale, the
		// default scoring controls, the calibrated network).
		Grid: &suite.Grid{Axes: []suite.Axis{
			{Name: "scale", Unit: "fraction of paper scale",
				Values: []float64{0.05, 0.1, 0.25}, Default: 0.25},
			{Name: "gate", Unit: "field units",
				Values: []float64{24, 32, 48}, Default: DefaultGate},
			{Name: "prune", Unit: "per-mille of best score",
				Values: []float64{0, 250, 500}, Default: DefaultPrune},
			{Name: "net", Unit: "latency multiplier (0 = calibrated)",
				Values: []float64{0, 1, 2.5}, Default: 0},
		}},
		Variants: []*suite.Variant{
			{
				// The scoring loop — the reference.
				Name: "sequential", Style: suite.Sequential,
				Defaults: scoreDefaults,
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					s := sc.(*Scenario)
					return output(Sequential(t, s, paramsFrom(p), DefaultCosts), s)
				},
			},
			{
				// A persistent crew with private partial-score buffers and a
				// per-hypothesis merge reduction.
				Name: "coarse", Style: suite.Coarse,
				Defaults: scoreDefaults.Merged(suite.Params{"workers": 8}),
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					s := sc.(*Scenario)
					return output(Coarse(t, s, p["workers"], paramsFrom(p), DefaultCosts), s)
				},
				OverheadFullScale: CoarsePartialBytesFullScale,
			},
			{
				// The Tera style: fetch-and-add observation claims, evidence
				// committed through full/empty score guards.
				Name: "fine", Style: suite.Fine,
				Defaults: scoreDefaults.Merged(suite.Params{"threads": 64}),
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					s := sc.(*Scenario)
					return output(Fine(t, s, p["threads"], paramsFrom(p), FineDefaultCosts), s)
				},
			},
		},
	})
}
