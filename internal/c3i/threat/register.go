package threat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// ScenarioName implements suite.Scenario.
func (s *Scenario) ScenarioName() string { return s.Name }

// Units implements suite.Scenario: the scaled unit is the threat count.
func (s *Scenario) Units() int { return len(s.Threats) }

// Warm precomputes every (threat, weapon) pair's interception windows so
// subsequent solver runs only read the scenario's window cache — the first
// solver run would populate it lazily otherwise, which is unsafe when
// concurrent experiment runs share one memoized scenario.
func (s *Scenario) Warm() {
	for ti := range s.Threats {
		for wi := range s.Weapons {
			s.CachedPairIntervals(ti, wi, func(int, int) {})
		}
	}
}

// Validate implements suite.Scenario: the time step must be positive, or
// the interception scan has no steps to walk.
func (s *Scenario) Validate() error {
	if !(s.DT > 0) {
		return fmt.Errorf("threat: time step %g, want positive", s.DT)
	}
	return nil
}

// Checksum reduces a solver's interval set to a stable FNV-1a checksum: the
// intervals are canonically sorted first, so all variants (including the
// nondeterministically-ordered fine-grained one) produce the same value.
func Checksum(ivs []Interval) uint64 {
	sorted := sortIntervals(ivs)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	put(len(sorted))
	for _, iv := range sorted {
		put(iv.Threat)
		put(iv.Weapon)
		put(iv.T1)
		put(iv.T2)
	}
	return h.Sum64()
}

// PipelinedCosts is the perfect-lookahead ablation calibration: every
// dependent load re-priced as pipelined streaming traffic (same total
// references, no exposed-latency chains).
func PipelinedCosts() Costs {
	c := DefaultCosts
	c.TrajRefsPerStep += c.DepRefsPerStep
	c.DepRefsPerStep = 0
	return c
}

// costsFrom maps registry params onto a cost calibration.
func costsFrom(p suite.Params) Costs {
	if p["pipelined"] != 0 {
		return PipelinedCosts()
	}
	return DefaultCosts
}

func output(out *Output) suite.Output {
	return suite.Output{Checksum: Checksum(out.Intervals), OverheadBytes: out.ArrayBytes}
}

func init() {
	suite.MustRegister(&suite.Workload{
		Name:             "threat-analysis",
		Key:              "ta",
		FileTag:          "threat",
		Title:            "Threat Analysis",
		Order:            1,
		PaperUnits:       1000,
		UnitName:         "threats/scenario",
		DefaultScale:     0.25,
		DataScale:        0.1,
		SmallScale:       0.02,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential"},
		Generate: func(scale float64) []suite.Scenario {
			return suite.Scenarios(Suite(scale))
		},
		New: func() suite.Scenario { return &Scenario{} },
		Variants: []*suite.Variant{
			{
				// Program 1: one shared num_intervals counter and array.
				Name: "sequential", Style: suite.Sequential,
				Defaults: suite.Params{"pipelined": 0},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(SequentialWithCosts(t, sc.(*Scenario), costsFrom(p)))
				},
			},
			{
				// Program 2: a multithreaded loop over chunks of threats,
				// each with its own oversized interval array.
				Name: "coarse", Style: suite.Coarse,
				Defaults: suite.Params{"chunks": 16, "pipelined": 0},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(ChunkedWithCosts(t, sc.(*Scenario), p["chunks"], costsFrom(p)))
				},
			},
			{
				// The paper's alternative Tera approach: one thread per
				// threat, shared array, atomic fetch-and-add append.
				Name: "fine", Style: suite.Fine,
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(FineGrained(t, sc.(*Scenario)))
				},
			},
		},
	})
}
