package threat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

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

// MaxTotalSteps bounds the work a scenario file may declare: its pair steps
// summed over every (threat, weapon) pair (TotalSteps). It is 2^30, about 32
// times the 33,677,400 pair steps of the largest scenario Suite(1)
// generates, whose longest pair is 1,934 steps.
const MaxTotalSteps = 1 << 30

// maxStep bounds a threat's detection and impact step indices: 2^53, the
// largest float64 that converts to an int exactly.
const maxStep = 1 << 53

// Validate implements suite.Scenario. The time step must be positive and
// finite, every threat and weapon field finite, and the total pair steps at
// most MaxTotalSteps. Steps are counted in float64, so a huge flight time is
// rejected before DetectStep or ImpactStep could wrap an int.
func (s *Scenario) Validate() error {
	if !(s.DT > 0) || math.IsInf(s.DT, 1) {
		return fmt.Errorf("threat: time step %g, want positive and finite", s.DT)
	}
	var total float64
	for i := range s.Threats {
		th := &s.Threats[i]
		if !finite(th.Launch.X, th.Launch.Y, th.Launch.Z, th.Vel.X, th.Vel.Y, th.Vel.Z, th.Detect) {
			return fmt.Errorf("threat: threat %d has a non-finite field", th.ID)
		}
		lo, hi := math.Ceil(th.Detect/s.DT), math.Floor(th.ImpactTime()/s.DT)
		if math.Abs(lo) > maxStep || math.Abs(hi) > maxStep {
			return fmt.Errorf("threat: threat %d detects at step %g and impacts at step %g, beyond ±2^53", th.ID, lo, hi)
		}
		total += max(0, hi-lo+1) * float64(len(s.Weapons))
	}
	for i := range s.Weapons {
		w := &s.Weapons[i]
		if !finite(w.Pos.X, w.Pos.Y, w.Pos.Z, w.MinRange, w.MaxRange, w.MinAlt, w.MaxAlt, w.Speed, w.Ready) {
			return fmt.Errorf("threat: weapon %d has a non-finite field", w.ID)
		}
	}
	if total > MaxTotalSteps {
		return fmt.Errorf("threat: %g pair steps, more than the %d a scenario may hold", total, MaxTotalSteps)
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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
