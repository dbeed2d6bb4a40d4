// Package route implements the C3I Parallel Benchmark Suite Route
// Optimization problem: computation of minimum-risk paths for aircraft
// flying over an uneven terrain containing ground-based threats.
//
// Inputs are (i) a risk-weighted grid graph derived from a terrain elevation
// field (steep cells cost more to cross) overlaid with the lethality fields
// of a set of ground threats, and (ii) a set of route requests, each a
// (start, goal) pair. The output is, for every request, the cost of the
// cheapest path — the single-source shortest-path problem over a
// four-connected grid with positive integer edge weights. Unlike Threat
// Analysis (compute-bound streaming) and Terrain Masking (memory-bound
// passes over dense arrays), this is the suite's irregular workload: the
// wavefront of reachable cells grows and shrinks unpredictably, every step
// chases pointers into a scattered distance array, and parallel versions
// must synchronize on individual graph nodes.
//
// The package provides the same three program styles as the other two
// benchmark problems:
//
//   - Sequential: textbook Dijkstra over the grid with a binary heap — the
//     reference program, one thread, no synchronization.
//   - Coarse: the manual parallelization in the style of Programs 2/4 — a
//     bucketed (∆-stepping) relaxation where each bucket's frontier is split
//     into chunks, each chunk thread accumulates candidate relaxations into
//     its own oversized private buffer (the memory-overhead drawback), and
//     the shared distance array and bucket lists are updated under per-block
//     locks over the grid.
//   - Fine: the Tera style — the shared bucket structure itself is the
//     synchronization point: threads claim frontier slices with atomic
//     fetch-and-add, guard distance words with full/empty synchronization
//     variables, and reserve push slots with another fetch-and-add. Hundreds
//     of short-lived threads per wavefront: viable only where thread
//     creation and per-word synchronization are nearly free.
//
// All variants run against *machine.Thread and produce identical per-request
// path costs (edge weights are integers, and relaxation converges to the
// unique shortest distance regardless of processing order), so outputs
// validate with one checksum — package data's golden records.
package route

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/c3i/terrain"
)

// Query is one route request: find the cheapest path from (SX, SY) to
// (GX, GY).
type Query struct {
	ID     int
	SX, SY int
	GX, GY int
}

// Scenario is one benchmark input: a risk-weighted grid plus route requests.
// Risk holds the per-cell entry cost surcharge (terrain steepness plus
// ground-threat lethality); entering cell v costs 1 + Risk[v].
type Scenario struct {
	Name    string
	W, H    int
	Risk    []int32
	Queries []Query
}

// Index returns the row-major index of (x, y).
func (s *Scenario) Index(x, y int) int { return y*s.W + x }

// Cells returns the number of grid cells.
func (s *Scenario) Cells() int { return s.W * s.H }

// EdgeWeight returns the cost of entering cell v (from any neighbor).
func (s *Scenario) EdgeWeight(v int) int32 { return 1 + s.Risk[v] }

// MaxEdgeWeight returns the largest edge weight in the scenario.
func (s *Scenario) MaxEdgeWeight() int32 {
	var m int32
	for _, r := range s.Risk {
		if r > m {
			m = r
		}
	}
	return 1 + m
}

// ThreatSite is a ground threat contributing risk to nearby cells: lethality
// Lethality at the site, falling linearly to zero at radius R (cells).
type ThreatSite struct {
	ID        int
	X, Y      int
	R         int
	Lethality int32
}

// GenParams controls synthetic scenario generation.
type GenParams struct {
	Side       int // grid is Side×Side cells
	NumThreats int
	Radius     int // threat lethality radius in cells
	NumQueries int
	Seed       int64
}

// Default scenario geometry. The grid stays at full size at any workload
// scale (like the Terrain Masking suite) so the distance array exceeds every
// conventional cache and the irregular access pattern keeps its
// memory-system character; scale varies the number of route requests.
const (
	DefaultSide    = 256
	DefaultRadius  = 32
	DefaultThreats = 24
	DefaultQueries = 12
)

// maxRisk caps the per-cell risk surcharge so edge weights stay small
// multiples of the base cost (keeps ∆-stepping buckets dense).
const maxRisk = 60

// GenScenario builds a deterministic synthetic scenario: fractal terrain
// converted to a steepness cost field, ground threats layered on top, and
// route requests that span the grid.
func GenScenario(name string, p GenParams) *Scenario {
	if p.Side == 0 {
		p.Side = DefaultSide
	}
	if p.Radius == 0 {
		p.Radius = DefaultRadius
	}
	if p.Side <= 2*p.Radius {
		panic(fmt.Sprintf("route: side %d too small for radius %d", p.Side, p.Radius))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := terrain.GenGrid(p.Side, p.Side, p.Seed^0x00207e)
	s := &Scenario{Name: name, W: p.Side, H: p.Side, Risk: make([]int32, p.Side*p.Side)}

	// Terrain steepness: the local elevation gradient, in cost units.
	for y := 0; y < p.Side; y++ {
		for x := 0; x < p.Side; x++ {
			var grad float64
			if x+1 < p.Side {
				grad += math.Abs(float64(g.At(x+1, y) - g.At(x, y)))
			}
			if y+1 < p.Side {
				grad += math.Abs(float64(g.At(x, y+1) - g.At(x, y)))
			}
			c := int32(grad / 15)
			if c > 8 {
				c = 8
			}
			s.Risk[s.Index(x, y)] = c
		}
	}

	// Ground threats: linear lethality falloff inside each radius.
	for i := 0; i < p.NumThreats; i++ {
		site := ThreatSite{
			ID: i,
			X:  p.Radius + rng.Intn(p.Side-2*p.Radius),
			Y:  p.Radius + rng.Intn(p.Side-2*p.Radius),
			R:  p.Radius,
			// 8–24: several times the typical steepness cost, so routes
			// actually detour around threats.
			Lethality: int32(8 + rng.Intn(17)),
		}
		r2 := site.R * site.R
		for dy := -site.R; dy <= site.R; dy++ {
			y := site.Y + dy
			if y < 0 || y >= p.Side {
				continue
			}
			for dx := -site.R; dx <= site.R; dx++ {
				x := site.X + dx
				if x < 0 || x >= p.Side {
					continue
				}
				d2 := dx*dx + dy*dy
				if d2 > r2 {
					continue
				}
				d := int(math.Sqrt(float64(d2)))
				add := site.Lethality * int32(site.R-d) / int32(site.R)
				idx := s.Index(x, y)
				if v := s.Risk[idx] + add; v > maxRisk {
					s.Risk[idx] = maxRisk
				} else {
					s.Risk[idx] = v
				}
			}
		}
	}

	// Route requests: endpoints far apart, so every wavefront crosses most
	// of the grid.
	for q := 0; q < p.NumQueries; q++ {
		var sx, sy, gx, gy int
		for {
			sx, sy = rng.Intn(p.Side), rng.Intn(p.Side)
			gx, gy = rng.Intn(p.Side), rng.Intn(p.Side)
			if abs(sx-gx)+abs(sy-gy) >= p.Side {
				break
			}
		}
		s.Queries = append(s.Queries, Query{ID: q, SX: sx, SY: sy, GX: gx, GY: gy})
	}
	return s
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// SuiteScale maps a workload scale factor onto generation parameters: the
// grid, threat count and radius stay at full size (preserving the irregular,
// cache-hostile character) while the number of route requests shrinks.
func SuiteScale(scale float64) GenParams {
	n := int(math.Round(DefaultQueries * scale))
	if n < 1 {
		n = 1
	}
	return GenParams{
		Side:       DefaultSide,
		NumThreats: DefaultThreats,
		Radius:     DefaultRadius,
		NumQueries: n,
	}
}

// Suite returns the benchmark's five input scenarios at the given scale; the
// benchmark time is the total over all five, matching how the paper's tables
// total the five scenarios of each problem.
func Suite(scale float64) []*Scenario {
	out := make([]*Scenario, 5)
	for i := range out {
		p := SuiteScale(scale)
		p.Seed = int64(301 + i)
		out[i] = GenScenario(fmt.Sprintf("scenario-%d", i+1), p)
	}
	return out
}
