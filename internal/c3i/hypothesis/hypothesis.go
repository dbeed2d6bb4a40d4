// Package hypothesis implements the C3I Parallel Benchmark Suite Hypothesis
// Testing problem: statistical scoring of candidate target hypotheses
// against a time-ordered stream of sensor observations. Each hypothesis is a
// candidate track state — a predicted position, a velocity and a prior
// weight; each observation either supports a hypothesis (it falls inside the
// gating window around the hypothesis's predicted position at the
// observation's time) or says nothing about it. Gated pairs contribute an
// integer evidence increment to the hypothesis's running score; after the
// stream is consumed, hypotheses whose total evidence falls below a prune
// threshold (a fraction of the best score) are discarded. The output is the
// surviving hypothesis set with its scores.
//
// Where Plot-Track Assignment is the suite's synchronization-heavy workload,
// this is its reduction-heavy one: the whole computation is one big
// commutative integer reduction of observation evidence into per-hypothesis
// accumulators — the scatter-add shape that cached machines privatize into
// per-worker buffers and the Tera MTA runs directly against shared memory
// under full/empty word guards.
//
// The package provides the same three program styles as the other four
// benchmark problems:
//
//   - Sequential: one scoring loop over the observation stream, accumulating
//     into a shared score array.
//   - Coarse: a persistent worker crew partitions the observation stream,
//     accumulates into oversized private partial-score buffers (the
//     memory-overhead drawback: every worker carries a full score vector),
//     then runs a barrier-separated per-hypothesis merge reduction.
//   - Fine: the Tera style — threads claim observations with atomic
//     fetch-and-add and commit each evidence increment immediately through
//     full/empty guard words striped over the running scores.
//
// Evidence increments are integers and addition commutes, so every style
// produces the identical score vector and one checksum validates all three
// — package data's golden records.
package hypothesis

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Hypothesis is one candidate track state: position at time zero, velocity
// per time step, and a prior weight (0 = speculative, MaxPrior = firmly
// held) that biases its evidence increments.
type Hypothesis struct {
	ID     int
	X, Y   int32
	VX, VY int32
	Prior  int32
}

// Observation is one sensor report: a measured position at a time step.
type Observation struct {
	ID   int
	T    int32
	X, Y int32
}

// Scenario is one benchmark input: a hypothesis set scored against a
// time-ordered observation stream in a Field×Field coordinate space over
// Steps time steps.
type Scenario struct {
	Name  string
	Field int32
	Steps int32
	Hyps  []Hypothesis
	Obs   []Observation
}

// Scoring constants: priors 0..MaxPrior, each prior step worth PriorWeight
// evidence units on every gated observation; hypothesis speeds bounded by
// MaxSpeed field units per step (what keeps predictions near the field and
// serialized scenarios checkable).
const (
	MaxPrior    = 15
	PriorWeight = 8
	MaxSpeed    = 8
)

// Default scenario geometry. The paper's evaluation did not cover this
// problem; the sizes follow the suite's pattern of five scenarios per
// problem with hundreds of workload units each. The field, the hypothesis
// set and the step count stay at full size at any workload scale
// (preserving the reduction width and the contested-cluster structure);
// scale varies the sensor load — the observations per scenario.
const (
	DefaultField = 1024
	DefaultHyps  = 300
	DefaultObs   = 400 // observations per scenario at scale 1
	DefaultSteps = 16  // time steps the stream spans
	DefaultGate  = 32  // gating window radius, field units
	DefaultPrune = 250 // prune threshold, per-mille of the best score
	detectSpread = 12  // detection noise, well inside the default gate
)

// PairScore returns the evidence increment observation o contributes to
// hypothesis h under a gating radius, and whether the pair is gated at all.
// The increment rewards small residuals against the hypothesis's predicted
// position at o's time, plus a prior-weight bias, and is always ≥ 1 for a
// gated pair.
func (s *Scenario) PairScore(h Hypothesis, o Observation, gate int) (int64, bool) {
	t := int64(o.T)
	px := int64(h.X) + int64(h.VX)*t
	py := int64(h.Y) + int64(h.VY)*t
	dx, dy := int64(o.X)-px, int64(o.Y)-py
	d2 := dx*dx + dy*dy
	g := int64(gate)
	if d2 > g*g {
		return 0, false
	}
	return g*g - d2 + 1 + int64(h.Prior)*PriorWeight, true
}

// TotalWork returns the benchmark work metric: the scoring scan is
// observations × hypotheses pair tests.
func (s *Scenario) TotalWork() int64 {
	return int64(len(s.Obs)) * int64(len(s.Hyps))
}

// ScenarioName implements suite.Scenario.
func (s *Scenario) ScenarioName() string { return s.Name }

// Units implements suite.Scenario: the scaled unit is the observation count
// (the field, the hypothesis set and the step count stay at full size at
// any scale).
func (s *Scenario) Units() int { return len(s.Obs) }

// Warm implements suite.Scenario; the scenario holds no lazy caches.
func (s *Scenario) Warm() {}

// Validate implements suite.Scenario: hypotheses and observations lie in
// the field with bounded speeds and priors, and the observation stream is
// time-ordered within the scenario's steps.
func (s *Scenario) Validate() error {
	if s.Field <= 0 || s.Steps <= 0 {
		return fmt.Errorf("hypothesis: field %d / steps %d, want positive", s.Field, s.Steps)
	}
	for _, h := range s.Hyps {
		if h.X < 0 || h.X >= s.Field || h.Y < 0 || h.Y >= s.Field {
			return fmt.Errorf("hypothesis: hypothesis %d at (%d,%d) outside %d×%d field",
				h.ID, h.X, h.Y, s.Field, s.Field)
		}
		if h.VX < -MaxSpeed || h.VX > MaxSpeed || h.VY < -MaxSpeed || h.VY > MaxSpeed {
			return fmt.Errorf("hypothesis: hypothesis %d velocity (%d,%d) outside ±%d", h.ID, h.VX, h.VY, MaxSpeed)
		}
		if h.Prior < 0 || h.Prior > MaxPrior {
			return fmt.Errorf("hypothesis: hypothesis %d prior %d outside 0..%d", h.ID, h.Prior, MaxPrior)
		}
	}
	for i, o := range s.Obs {
		if o.T < 0 || o.T >= s.Steps {
			return fmt.Errorf("hypothesis: observation %d at step %d outside 0..%d", o.ID, o.T, s.Steps-1)
		}
		if o.X < 0 || o.X >= s.Field || o.Y < 0 || o.Y >= s.Field {
			return fmt.Errorf("hypothesis: observation %d at (%d,%d) outside %d×%d field",
				o.ID, o.X, o.Y, s.Field, s.Field)
		}
		if i > 0 && o.T < s.Obs[i-1].T {
			return fmt.Errorf("hypothesis: observation stream not time-ordered at index %d", i)
		}
	}
	return nil
}

// Checksum reduces a solver's result to a stable FNV-1a checksum over the
// quantities every variant provably shares: the problem shape, the best
// score, and each surviving hypothesis with its total evidence, in
// hypothesis order. Evidence addition commutes, so the nondeterministically
// ordered fine-grained style produces the same value.
func Checksum(out *Output, hyps, obs int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(hyps))
	put(int64(obs))
	put(out.Best)
	put(int64(len(out.Survivors)))
	for _, id := range out.Survivors {
		put(int64(id))
		put(out.Scores[id])
	}
	return h.Sum64()
}

// GenParams controls synthetic scenario generation.
type GenParams struct {
	Field   int32
	NumHyps int
	NumObs  int
	Steps   int32
	Seed    int64
}

// GenScenario builds a deterministic synthetic scenario. Hypotheses are
// generated partly in ambiguity clusters — several candidate states
// explaining the same trajectory, whose gates overlap (the contested score
// words that make the reduction synchronization-visible) — and partly in
// the open. Most observations are detections generated along a hypothesis's
// trajectory with noise inside the default gate; the rest are clutter
// anywhere in the field. The stream is time-ordered.
func GenScenario(name string, p GenParams) *Scenario {
	if p.Field == 0 {
		p.Field = DefaultField
	}
	if p.Steps == 0 {
		p.Steps = DefaultSteps
	}
	if p.NumHyps < 1 || p.NumObs < 1 {
		panic(fmt.Sprintf("hypothesis: scenario needs hypotheses and observations, got %d/%d", p.NumHyps, p.NumObs))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Scenario{Name: name, Field: p.Field, Steps: p.Steps}

	pos := func() (int32, int32) {
		return rng.Int31n(p.Field), rng.Int31n(p.Field)
	}
	vel := func() int32 {
		return rng.Int31n(2*MaxSpeed+1) - MaxSpeed
	}
	clamp := func(v int32) int32 {
		if v < 0 {
			return 0
		}
		if v >= p.Field {
			return p.Field - 1
		}
		return v
	}

	// Hypotheses: roughly 50% in ambiguity clusters of 3–5 sharing a base
	// state within one default gate (near-identical predictions → overlapping
	// gates over the whole stream), the rest scattered.
	for len(s.Hyps) < p.NumHyps {
		if rng.Float64() < 0.5 && p.NumHyps-len(s.Hyps) >= 3 {
			cx, cy := pos()
			cvx, cvy := vel(), vel()
			n := 3 + rng.Intn(3)
			if rem := p.NumHyps - len(s.Hyps); n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				dv := func(v int32) int32 {
					v += rng.Int31n(3) - 1
					if v > MaxSpeed {
						v = MaxSpeed
					}
					if v < -MaxSpeed {
						v = -MaxSpeed
					}
					return v
				}
				s.Hyps = append(s.Hyps, Hypothesis{
					ID:    len(s.Hyps),
					X:     clamp(cx + rng.Int31n(2*DefaultGate) - DefaultGate),
					Y:     clamp(cy + rng.Int31n(2*DefaultGate) - DefaultGate),
					VX:    dv(cvx),
					VY:    dv(cvy),
					Prior: rng.Int31n(MaxPrior + 1),
				})
			}
		} else {
			x, y := pos()
			s.Hyps = append(s.Hyps, Hypothesis{
				ID: len(s.Hyps), X: x, Y: y, VX: vel(), VY: vel(),
				Prior: rng.Int31n(MaxPrior + 1),
			})
		}
	}

	// Observations: 70% detections along a random hypothesis's trajectory
	// (measured position = prediction + noise inside the default gate), 30%
	// clutter. The stream is sorted by time step (stable, so generation
	// order breaks ties deterministically) and IDs follow stream order.
	nDet := int(math.Round(0.7 * float64(p.NumObs)))
	for i := 0; i < p.NumObs; i++ {
		t := rng.Int31n(p.Steps)
		var o Observation
		if i < nDet {
			h := s.Hyps[rng.Intn(len(s.Hyps))]
			o = Observation{
				T: t,
				X: clamp(h.X + h.VX*t + rng.Int31n(2*detectSpread+1) - detectSpread),
				Y: clamp(h.Y + h.VY*t + rng.Int31n(2*detectSpread+1) - detectSpread),
			}
		} else {
			x, y := pos()
			o = Observation{T: t, X: x, Y: y}
		}
		s.Obs = append(s.Obs, o)
	}
	sort.SliceStable(s.Obs, func(i, j int) bool { return s.Obs[i].T < s.Obs[j].T })
	for i := range s.Obs {
		s.Obs[i].ID = i
	}
	return s
}

// SuiteScale maps a workload scale factor onto generation parameters: the
// field, the hypothesis set and the step count stay at full size (so the
// reduction keeps its width and the clusters their contention) while the
// observations — the sensor load — shrink. Work is linear in the
// observation count, so normalization by observations/scenario stays exact.
func SuiteScale(scale float64) GenParams {
	n := int(math.Round(DefaultObs * scale))
	if n < 1 {
		n = 1
	}
	return GenParams{
		Field:   DefaultField,
		NumHyps: DefaultHyps,
		NumObs:  n,
		Steps:   DefaultSteps,
	}
}

// Suite returns the benchmark's five input scenarios at the given scale; the
// benchmark time is the total over all five, matching how the paper's tables
// total the five scenarios of each problem.
func Suite(scale float64) []*Scenario {
	out := make([]*Scenario, 5)
	for i := range out {
		p := SuiteScale(scale)
		p.Seed = int64(501 + i)
		out[i] = GenScenario(fmt.Sprintf("scenario-%d", i+1), p)
	}
	return out
}
