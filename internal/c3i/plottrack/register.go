package plottrack

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// ScenarioName implements suite.Scenario.
func (s *Scenario) ScenarioName() string { return s.Name }

// Units implements suite.Scenario: the scaled unit is the plots per frame
// (the field, the track database and the frame count stay at full size at
// any scale).
func (s *Scenario) Units() int { return s.framePlots() }

// Warm implements suite.Scenario; the scenario holds no lazy caches.
func (s *Scenario) Warm() {}

// Validate implements suite.Scenario: every track and plot lies in the
// field, qualities are in range, and all frames hold the same plot count.
func (s *Scenario) Validate() error {
	if s.Field <= 0 {
		return fmt.Errorf("plottrack: field size %d, want positive", s.Field)
	}
	for _, tr := range s.Tracks {
		if tr.X < 0 || tr.X >= s.Field || tr.Y < 0 || tr.Y >= s.Field {
			return fmt.Errorf("plottrack: track %d at (%d,%d) outside %d×%d field",
				tr.ID, tr.X, tr.Y, s.Field, s.Field)
		}
		if tr.Quality < 0 || tr.Quality > MaxQuality {
			return fmt.Errorf("plottrack: track %d quality %d outside 0..%d", tr.ID, tr.Quality, MaxQuality)
		}
	}
	for f, frame := range s.Frames {
		if len(frame) != len(s.Frames[0]) {
			return fmt.Errorf("plottrack: frame %d has %d plots, frame 0 has %d — frames must be one size",
				f, len(frame), len(s.Frames[0]))
		}
		for _, p := range frame {
			if p.X < 0 || p.X >= s.Field || p.Y < 0 || p.Y >= s.Field {
				return fmt.Errorf("plottrack: frame %d plot %d at (%d,%d) outside %d×%d field",
					f, p.ID, p.X, p.Y, s.Field, s.Field)
			}
		}
	}
	return nil
}

// Checksum reduces a solver's result to a stable FNV-1a checksum over the
// quantities every variant provably shares: the problem shape and each
// frame's minimum assignment cost, in frame order. (The assignment itself
// may differ between equal-cost optima under nondeterministic bid orders;
// the optimal cost cannot.)
func Checksum(frameCosts []int64, plots, tracks int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(plots))
	put(int64(tracks))
	put(int64(len(frameCosts)))
	for _, c := range frameCosts {
		put(c)
	}
	return h.Sum64()
}

// paramsFrom maps registry params onto the shared auction controls.
func paramsFrom(p suite.Params) Params {
	return Params{Gate: p["gate"], Epsilon: p["epsilon"], Rounds: p["rounds"]}
}

func output(out *Output, s *Scenario) suite.Output {
	return suite.Output{
		Checksum:      Checksum(out.FrameCost, s.framePlots(), len(s.Tracks)),
		OverheadBytes: out.BidBufferBytes,
	}
}

// auctionDefaults are the tunables every variant shares: the gating-window
// radius, the auction ε (in scaled cost units; the default guarantees the
// exact optimum — see DefaultEpsilon) and the convergence-guard round limit
// (0 = none).
var auctionDefaults = suite.Params{"gate": DefaultGate, "epsilon": DefaultEpsilon, "rounds": 0}

func init() {
	suite.MustRegister(&suite.Workload{
		Name:             "plot-track-assignment",
		Key:              "pt",
		FileTag:          "plot",
		Title:            "Plot-Track Assignment",
		Order:            4,
		PaperUnits:       DefaultPlots,
		UnitName:         "plots/frame",
		DefaultScale:     0.25,
		DataScale:        0.1,
		SmallScale:       0.04,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential", "coarse", "fine"},
		Generate: func(scale float64) []suite.Scenario {
			return suite.Scenarios(Suite(scale))
		},
		New: func() suite.Scenario { return &Scenario{} },
		// A modest declared grid: sensor load × gating radius. Gate values
		// stay at or above the generation default, so every plot keeps its
		// gated candidates and the auction stays well-conditioned at every
		// point. ("epsilon" is deliberately not an axis: values above
		// DefaultEpsilon trade exactness for speed, and the styles only
		// provably agree at the exact optimum.)
		Grid: &suite.Grid{Axes: []suite.Axis{
			{Name: "scale", Unit: "fraction of paper scale",
				Values: []float64{0.04, 0.1, 0.25}, Default: 0.25},
			{Name: "gate", Unit: "field units",
				Values: []float64{DefaultGate, 2 * DefaultGate}, Default: DefaultGate},
		}},
		Variants: []*suite.Variant{
			{
				// The Gauss-Seidel auction: greedy with repair — the
				// reference.
				Name: "sequential", Style: suite.Sequential,
				Defaults: auctionDefaults.Merged(suite.Params{"pipelined": 0}),
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					c := DefaultCosts
					if p["pipelined"] != 0 {
						c = PipelinedCosts()
					}
					s := sc.(*Scenario)
					return output(SequentialWithCosts(t, s, paramsFrom(p), c), s)
				},
			},
			{
				// The Jacobi auction: a persistent worker crew, private bid
				// buffers, per-track merge locks, bid/commit rounds.
				Name: "coarse", Style: suite.Coarse,
				Defaults: auctionDefaults.Merged(suite.Params{"workers": 4}),
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					s := sc.(*Scenario)
					return output(CoarseWithCosts(t, s, p["workers"], paramsFrom(p), DefaultCosts), s)
				},
				OverheadFullScale: CoarseBidBytesFullScale,
			},
			{
				// The Tera style: fetch-and-add plot claims, bids committed
				// through full/empty track-ownership cells.
				Name: "fine", Style: suite.Fine,
				Defaults: auctionDefaults.Merged(suite.Params{"threads": 64}),
				Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
					s := sc.(*Scenario)
					return output(FineWithCosts(t, s, p["threads"], paramsFrom(p), FineDefaultCosts), s)
				},
			},
		},
	})
}
