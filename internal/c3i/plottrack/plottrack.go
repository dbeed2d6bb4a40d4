// Package plottrack implements the C3I Parallel Benchmark Suite Plot-Track
// Assignment problem: correlating one frame of radar plots (sensor returns)
// with the existing track database. Each plot must be assigned to at most
// one track and each track can absorb at most one plot; plots that match no
// track open a new one. Candidate pairs are restricted by a gating window
// around each track's predicted position, and each gated pair carries an
// integer association cost (position residual plus a track-quality penalty).
// The output is the minimum-cost assignment — weighted bipartite matching.
//
// Where Threat Analysis streams independent work and Terrain Masking sweeps
// dense arrays, this is the suite's synchronization-heavy workload: every
// contested track is a word of shared state that multiple bidders race to
// own, and the natural parallel algorithm (the auction algorithm) is built
// from exactly the primitives the Tera MTA makes cheap — fetch-and-add work
// claims and full/empty ownership words.
//
// The package provides the same three program styles as the other three
// benchmark problems:
//
//   - Sequential: the Gauss-Seidel auction — greedy assignment with repair:
//     one unassigned plot at a time bids for its cheapest gated track,
//     displacing the previous owner, until no plot is unassigned.
//   - Coarse: a persistent worker crew partitions the unassigned plots,
//     stages bids in oversized private buffers (the memory-overhead
//     drawback), and commits them under per-track merge locks in barrier-
//     separated bid/commit rounds (the Jacobi auction).
//   - Fine: the Tera style — threads claim unassigned plots with atomic
//     fetch-and-add and commit each bid immediately through the track's
//     full/empty ownership cell. Nondeterministic work order; viable only
//     where thread creation and per-word synchronization are nearly free.
//
// All variants run the auction to the same precision (ε = 1 on costs scaled
// by #plots+1, which makes the ε-complementary-slackness assignment exactly
// optimal), so every style converges to the identical minimum assignment
// cost and outputs validate with one checksum — package data's golden
// records.
package plottrack

import (
	"fmt"
	"math"
	"math/rand"
)

// Track is one existing track state: the predicted position for this frame
// and the track quality (0 = tentative, MaxQuality = firmly established).
// Higher-quality tracks are preferred on near-equal residuals.
type Track struct {
	ID      int
	X, Y    int32
	Quality int32
}

// Plot is one radar return: a measured position in field coordinates.
type Plot struct {
	ID   int
	X, Y int32
}

// Scenario is one benchmark input: a sequence of radar frames (one per
// scan) correlated against the same track database, all in a Field×Field
// coordinate space. Frames are independent assignment problems — the
// benchmark's outer sequential loop, like Route Optimization's route
// requests.
type Scenario struct {
	Name   string
	Field  int32
	Tracks []Track
	Frames [][]Plot
}

// Scoring constants: quality 0..MaxQuality, each quality step worth
// QualityWeight cost units against the squared position residual.
const (
	MaxQuality    = 15
	QualityWeight = 4
)

// Default scenario geometry. The paper's evaluation did not cover this
// problem; the sizes follow the suite's pattern of five scenarios per
// problem with hundreds of workload units each. The track database and the
// field stay at full size at any workload scale (preserving the gating
// scan's streaming length and the contested-formation structure); scale
// varies the sensor load — the plots per frame.
const (
	DefaultField  = 1024
	DefaultPlots  = 500 // plots per frame at scale 1
	DefaultTracks = 450
	DefaultFrames = 12 // radar scans per scenario
	DefaultGate   = 24 // gating window radius, field units
	detectSpread  = 10 // detection noise, well inside the default gate
)

// PairCost returns the association cost of (plot, track) under a gating
// radius, and whether the pair is gated at all. The cost is the squared
// position residual plus a penalty for tentative (low-quality) tracks, so
// ties between residuals break toward established tracks.
func (s *Scenario) PairCost(p Plot, tr Track, gate int) (int64, bool) {
	dx, dy := int64(p.X-tr.X), int64(p.Y-tr.Y)
	d2 := dx*dx + dy*dy
	g := int64(gate)
	if d2 > g*g {
		return 0, false
	}
	return d2 + int64(MaxQuality-tr.Quality)*QualityWeight, true
}

// NewTrackCost returns the cost of leaving a plot unmatched (opening a new
// track) under a gating radius: strictly above the worst gated pair cost, so
// a plot never prefers a new track while a gated candidate is free.
func NewTrackCost(gate int) int64 {
	return int64(gate)*int64(gate) + MaxQuality*QualityWeight + 1
}

// GenParams controls synthetic scenario generation. NumPlots is the plot
// count per frame; Frames defaults to 1.
type GenParams struct {
	Field     int32
	NumTracks int
	NumPlots  int
	Frames    int
	Seed      int64
}

// GenScenario builds a deterministic synthetic frame. Tracks are placed
// partly in tight formations (overlapping gates — the contested assignments
// that make the problem synchronization-heavy) and partly in the open; most
// tracks are detected (a plot near the predicted position), the remaining
// plots are clutter anywhere in the field.
func GenScenario(name string, p GenParams) *Scenario {
	if p.Field == 0 {
		p.Field = DefaultField
	}
	if p.NumTracks < 1 || p.NumPlots < 1 {
		panic(fmt.Sprintf("plottrack: scenario needs tracks and plots, got %d/%d", p.NumTracks, p.NumPlots))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Scenario{Name: name, Field: p.Field}

	pos := func() (int32, int32) {
		return rng.Int31n(p.Field), rng.Int31n(p.Field)
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

	// Tracks: roughly 60% in formations of 3–6 whose gates overlap, the rest
	// scattered. Formation members sit within two default gates of a center.
	for len(s.Tracks) < p.NumTracks {
		if rng.Float64() < 0.6 && p.NumTracks-len(s.Tracks) >= 3 {
			cx, cy := pos()
			n := 3 + rng.Intn(4)
			if rem := p.NumTracks - len(s.Tracks); n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				s.Tracks = append(s.Tracks, Track{
					ID:      len(s.Tracks),
					X:       clamp(cx + rng.Int31n(4*DefaultGate) - 2*DefaultGate),
					Y:       clamp(cy + rng.Int31n(4*DefaultGate) - 2*DefaultGate),
					Quality: rng.Int31n(MaxQuality + 1),
				})
			}
		} else {
			x, y := pos()
			s.Tracks = append(s.Tracks, Track{
				ID: len(s.Tracks), X: x, Y: y, Quality: rng.Int31n(MaxQuality + 1),
			})
		}
	}

	// Frames: per scan, detections for a prefix of the tracks (measured
	// position = predicted position + noise inside the default gate) and
	// clutter over the rest of the field, shuffled so detections and clutter
	// interleave like a real frame.
	frames := p.Frames
	if frames == 0 {
		frames = 1
	}
	nDet := int(math.Round(0.8 * float64(p.NumPlots)))
	if nDet > p.NumTracks {
		nDet = p.NumTracks
	}
	for f := 0; f < frames; f++ {
		frame := make([]Plot, 0, p.NumPlots)
		for i := 0; i < p.NumPlots; i++ {
			var pl Plot
			if i < nDet {
				tr := s.Tracks[i]
				pl = Plot{
					X: clamp(tr.X + rng.Int31n(2*detectSpread+1) - detectSpread),
					Y: clamp(tr.Y + rng.Int31n(2*detectSpread+1) - detectSpread),
				}
			} else {
				x, y := pos()
				pl = Plot{X: x, Y: y}
			}
			frame = append(frame, pl)
		}
		rng.Shuffle(len(frame), func(i, j int) {
			frame[i], frame[j] = frame[j], frame[i]
		})
		for i := range frame {
			frame[i].ID = i
		}
		s.Frames = append(s.Frames, frame)
	}
	return s
}

// SuiteScale maps a workload scale factor onto generation parameters: the
// field, the track database and the frame count stay at full size (so the
// gating scan keeps its streaming length and the per-frame structure its
// contested formations) while the plots per frame — the sensor load —
// shrink. Work is linear in the plot count, so normalization by plots/frame
// stays exact.
func SuiteScale(scale float64) GenParams {
	n := int(math.Round(DefaultPlots * scale))
	if n < 1 {
		n = 1
	}
	return GenParams{
		Field:     DefaultField,
		NumTracks: DefaultTracks,
		NumPlots:  n,
		Frames:    DefaultFrames,
	}
}

// Suite returns the benchmark's five input scenarios at the given scale; the
// benchmark time is the total over all five, matching how the paper's tables
// total the five scenarios of each problem.
func Suite(scale float64) []*Scenario {
	out := make([]*Scenario, 5)
	for i := range out {
		p := SuiteScale(scale)
		p.Seed = int64(401 + i)
		out[i] = GenScenario(fmt.Sprintf("scenario-%d", i+1), p)
	}
	return out
}
