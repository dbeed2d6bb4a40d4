package terrain

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

// Units implements suite.Scenario: the scaled unit is the threat-site count
// (the terrain itself stays at full size at any scale).
func (s *Scenario) Units() int { return len(s.Threats) }

// Validate implements suite.Scenario: the elevation grid matches its
// dimensions, and every threat site has a positive radius, a distinct ID
// (the ray-visit cache is keyed by it) and a full region-of-influence
// margin from the terrain edge, as GenScenario places them.
func (s *Scenario) Validate() error {
	g := s.Grid
	if g == nil {
		return fmt.Errorf("terrain: no elevation grid")
	}
	// Dividing rather than multiplying keeps a huge W×H from wrapping round
	// to the slice length.
	if g.W <= 0 || g.H <= 0 || len(g.Elev)%g.W != 0 || len(g.Elev)/g.W != g.H {
		return fmt.Errorf("terrain: elevation length %d != %d×%d", len(g.Elev), g.W, g.H)
	}
	ids := make(map[int]bool, len(s.Threats))
	for _, t := range s.Threats {
		if t.R <= 0 {
			return fmt.Errorf("terrain: threat site %d radius %d, want positive", t.ID, t.R)
		}
		if t.X < t.R || t.X >= g.W-t.R || t.Y < t.R || t.Y >= g.H-t.R {
			return fmt.Errorf("terrain: threat site %d at (%d,%d) radius %d reaches outside the %d×%d grid",
				t.ID, t.X, t.Y, t.R, g.W, g.H)
		}
		if ids[t.ID] {
			return fmt.Errorf("terrain: threat site ID %d repeats", t.ID)
		}
		ids[t.ID] = true
	}
	return nil
}

// Checksum reduces a Masking result to a stable FNV-1a checksum over the
// float32 bit patterns (+Inf cells included, so coverage changes are
// detected).
func (m *Masking) Checksum() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(m.W))
	h.Write(buf[:])
	binary.LittleEndian.PutUint32(buf[:], uint32(m.H))
	h.Write(buf[:])
	for _, v := range m.Vals {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// PipelinedCosts is the perfect-lookahead ablation calibration: every
// dependent load re-priced as pipelined streaming traffic.
func PipelinedCosts() Costs {
	c := DefaultCosts
	c.StreamRefsPerVisit += c.DepRefsPerVisit
	c.DepRefsPerVisit = 0
	return c
}

// optFrom maps registry params onto solver options: validate=1 requests the
// full (checksummable) computation, otherwise runs replay memoized charges.
// The "pipelined" ablation is applied only by the sequential variant — its
// cost base is the sequential calibration, which would silently displace
// FineDefaultCosts in the fine/hybrid solvers.
func optFrom(p suite.Params) Opt {
	return Opt{ChargeOnly: p[suite.ValidateParam] == 0}
}

func output(out *Output) suite.Output {
	so := suite.Output{OverheadBytes: out.TempBytes}
	if out.Masking != nil {
		so.Checksum = out.Masking.Checksum()
	}
	return so
}

func init() {
	suite.MustRegister(&suite.Workload{
		Name:             "terrain-masking",
		Key:              "tm",
		FileTag:          "terrain",
		Title:            "Terrain Masking",
		Order:            2,
		PaperUnits:       60,
		UnitName:         "threat sites/scenario",
		DefaultScale:     0.5,
		DataScale:        0.1,
		SmallScale:       0.05,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential"},
		Generate: func(scale float64) []suite.Scenario {
			return suite.Scenarios(Suite(scale))
		},
		New: func() suite.Scenario { return &Scenario{} },
		Variants: []*suite.Variant{
			{
				// Program 3: save / reset / trace / minimize, one threat at
				// a time — four passes over the region of influence.
				Name: "sequential", Style: suite.Sequential,
				Defaults: suite.Params{suite.ValidateParam: 0, "pipelined": 0},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					o := optFrom(p)
					if p["pipelined"] != 0 {
						o.Costs = PipelinedCosts()
					}
					return output(Sequential(t, sc.(*Scenario), o))
				},
			},
			{
				// Program 4: a dynamic multithreaded loop over threats,
				// private temp arrays, block-locked minimize.
				Name: "coarse", Style: suite.Coarse,
				Defaults: suite.Params{suite.ValidateParam: 0, "workers": 4, "blocks": 10},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(Coarse(t, sc.(*Scenario), p["workers"], p["blocks"], optFrom(p)))
				},
				OverheadFullScale: CoarseTempBytesFullScale,
			},
			{
				// The Feo restructuring: threats in order, the inner loops
				// (ray sectors, merge rows) parallelized, no locks.
				Name: "fine", Style: suite.Fine,
				Defaults: suite.Params{suite.ValidateParam: 0, "sectors": 96, "merge": 64},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(Fine(t, sc.(*Scenario), p["sectors"], p["merge"], optFrom(p)))
				},
			},
			{
				// Both parallel dimensions at once, for the larger machines
				// the paper's §8 looks forward to: a worker crew over
				// threats whose inner loops are themselves parallelized.
				Name: "hybrid", Style: suite.Fine,
				Defaults: suite.Params{suite.ValidateParam: 0, "workers": 2, "sectors": 96, "merge": 64, "blocks": 10},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(Hybrid(t, sc.(*Scenario),
						p["workers"], p["sectors"], p["merge"], p["blocks"], optFrom(p)))
				},
				OverheadFullScale: CoarseTempBytesFullScale,
			},
		},
	})
}
