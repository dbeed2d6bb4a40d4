package route

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// ScenarioName implements suite.Scenario.
func (s *Scenario) ScenarioName() string { return s.Name }

// Units implements suite.Scenario: the scaled unit is the route-request
// count (the grid stays at full size at any scale).
func (s *Scenario) Units() int { return len(s.Queries) }

// Warm implements suite.Scenario; the scenario holds no lazy caches.
func (s *Scenario) Warm() {}

// Validate implements suite.Scenario: the risk grid matches its dimensions,
// no cell has negative risk, and every query's endpoints lie on the grid.
func (s *Scenario) Validate() error {
	// Dividing rather than multiplying keeps a huge W×H from wrapping round
	// to the slice length.
	if s.W <= 0 || s.H <= 0 || len(s.Risk)%s.W != 0 || len(s.Risk)/s.W != s.H {
		return fmt.Errorf("route: risk length %d != %d×%d", len(s.Risk), s.W, s.H)
	}
	for i, r := range s.Risk {
		if r < 0 {
			return fmt.Errorf("route: negative risk %d at cell %d", r, i)
		}
	}
	for _, q := range s.Queries {
		if q.SX < 0 || q.SX >= s.W || q.SY < 0 || q.SY >= s.H ||
			q.GX < 0 || q.GX >= s.W || q.GY < 0 || q.GY >= s.H {
			return fmt.Errorf("route: query %d endpoints (%d,%d)→(%d,%d) outside %d×%d grid",
				q.ID, q.SX, q.SY, q.GX, q.GY, s.W, s.H)
		}
	}
	return nil
}

// Checksum reduces a solver's per-request path costs (in query order —
// identical across all variants) to a stable FNV-1a checksum.
func Checksum(costs []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(costs)))
	h.Write(buf[:])
	for _, c := range costs {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func output(out *Output) suite.Output {
	return suite.Output{Checksum: Checksum(out.PathCost), OverheadBytes: out.FrontierBytes}
}

func init() {
	suite.MustRegister(&suite.Workload{
		Name:             "route-optimization",
		Key:              "ro",
		FileTag:          "route",
		Title:            "Route Optimization",
		Order:            3,
		PaperUnits:       DefaultQueries,
		UnitName:         "route requests/scenario",
		DefaultScale:     0.25,
		DataScale:        0.25,
		SmallScale:       0.1,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential", "coarse", "fine"},
		Generate: func(scale float64) []suite.Scenario {
			return suite.Scenarios(Suite(scale))
		},
		New: func() suite.Scenario { return &Scenario{} },
		Variants: []*suite.Variant{
			{
				// Textbook Dijkstra with a binary heap — the reference.
				Name: "sequential", Style: suite.Sequential,
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(Sequential(t, sc.(*Scenario)))
				},
			},
			{
				// ∆-stepping with a persistent worker crew, private
				// candidate buffers and per-block merge locks.
				Name: "coarse", Style: suite.Coarse,
				Defaults: suite.Params{"workers": 4, "blocks": 4, "delta": DefaultDelta},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(CoarseWithCosts(t, sc.(*Scenario),
						p["workers"], p["blocks"], p["delta"], DefaultCosts))
				},
				OverheadFullScale: CoarseFrontierBytesFullScale,
			},
			{
				// The Tera style: fetch-and-add frontier claims and
				// full/empty distance guards, a crowd of threads per
				// wavefront.
				Name: "fine", Style: suite.Fine,
				Defaults: suite.Params{"threads": 64, "delta": DefaultDelta},
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					return output(FineWithCosts(t, sc.(*Scenario),
						p["threads"], p["delta"], FineDefaultCosts))
				},
			},
		},
	})
}
