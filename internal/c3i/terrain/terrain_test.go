package terrain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// tiny returns a small scenario for fast correctness tests.
func tiny(seed int64, threats int) *Scenario {
	return GenScenario("tiny", GenParams{Side: 300, NumThreats: threats, Radius: 40, Seed: seed})
}

func TestGenGridDeterministicAndBounded(t *testing.T) {
	a := GenGrid(128, 128, 9)
	b := GenGrid(128, 128, 9)
	for i := range a.Elev {
		if a.Elev[i] != b.Elev[i] {
			t.Fatal("grid generation not deterministic")
		}
	}
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range a.Elev {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 0 || hi > 1500.01 {
		t.Errorf("elevations [%v, %v] outside [0, 1500]", lo, hi)
	}
	if hi-lo < 500 {
		t.Errorf("terrain too flat: range %v", hi-lo)
	}
	c := GenGrid(128, 128, 10)
	same := true
	for i := range a.Elev {
		if a.Elev[i] != c.Elev[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical terrain")
	}
}

func TestROICellsApproxDisk(t *testing.T) {
	r := 50
	got := float64(ROICells(r))
	want := math.Pi * float64(r) * float64(r)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("ROICells(%d) = %v, want ≈ %v", r, got, want)
	}
}

func TestScenarioROIFraction(t *testing.T) {
	// Default geometry: each threat influences ≈5% of the terrain (paper).
	frac := float64(ROICells(DefaultRadius)) / float64(DefaultSide*DefaultSide)
	if frac < 0.045 || frac > 0.055 {
		t.Errorf("ROI fraction = %v, want ≈ 0.05", frac)
	}
}

func TestThreatSitesKeepMargin(t *testing.T) {
	s := tiny(3, 20)
	for _, th := range s.Threats {
		if th.X < th.R || th.X >= s.Grid.W-th.R || th.Y < th.R || th.Y >= s.Grid.H-th.R {
			t.Errorf("threat at (%d,%d) radius %d clips the %d×%d grid",
				th.X, th.Y, th.R, s.Grid.W, s.Grid.H)
		}
	}
}

func TestRayTargetCoversPerimeter(t *testing.T) {
	r := 5
	seen := map[[2]int]bool{}
	for i := 0; i < NumRays(r); i++ {
		dx, dy := rayTarget(r, i)
		if dx < -r || dx > r || dy < -r || dy > r {
			t.Fatalf("ray %d target (%d,%d) outside box", i, dx, dy)
		}
		if dx != -r && dx != r && dy != -r && dy != r {
			t.Fatalf("ray %d target (%d,%d) not on perimeter", i, dx, dy)
		}
		seen[[2]int{dx, dy}] = true
	}
	// All 8r perimeter cells except the four corners counted once = 8r
	// distinct targets.
	if len(seen) != NumRays(r) {
		t.Errorf("distinct targets = %d, want %d", len(seen), NumRays(r))
	}
}

func TestTraceRayFlatTerrainFullyExposed(t *testing.T) {
	// On perfectly flat terrain nothing blocks: masking altitude is 0
	// everywhere in range (clear line of sight to the ground).
	g := &Grid{W: 101, H: 101, Elev: make([]float32, 101*101)}
	site := &ThreatSite{X: 50, Y: 50, R: 30, SensorZ: 15}
	f := NewField(site)
	for ray := 0; ray < NumRays(site.R); ray++ {
		TraceRay(g, site, f, ray)
	}
	for dy := -30; dy <= 30; dy++ {
		for dx := -30; dx <= 30; dx++ {
			if dx == 0 && dy == 0 || dx*dx+dy*dy > 30*30 {
				continue
			}
			v := f.At(50+dx, 50+dy)
			if math.IsInf(float64(v), 1) {
				continue // a few cells can be missed by the discrete fan
			}
			if v != 0 {
				t.Fatalf("flat terrain masking at (%d,%d) = %v, want 0", dx, dy, v)
			}
		}
	}
}

func TestTraceRayRidgeShadowsBehind(t *testing.T) {
	// A tall ridge at x=60 must give cells behind it (x>60) a positive
	// masking altitude that grows with distance.
	g := &Grid{W: 101, H: 101, Elev: make([]float32, 101*101)}
	for y := 0; y < 101; y++ {
		g.Elev[y*101+60] = 500
	}
	site := &ThreatSite{X: 50, Y: 50, R: 40, SensorZ: 15}
	f := NewField(site)
	for ray := 0; ray < NumRays(site.R); ray++ {
		TraceRay(g, site, f, ray)
	}
	v1 := f.At(65, 50)
	v2 := f.At(80, 50)
	if !(v1 > 0 && v2 > v1) {
		t.Errorf("shadow not growing behind ridge: at 65 = %v, at 80 = %v", v1, v2)
	}
	// In front of the ridge: fully exposed (flat).
	if v := f.At(55, 50); v != 0 {
		t.Errorf("in front of ridge = %v, want 0", v)
	}
}

func TestFieldCoverage(t *testing.T) {
	// The discrete ray fan must reach nearly every cell of the ROI disk.
	s := tiny(4, 1)
	site := &s.Threats[0]
	f := NewField(site)
	for ray := 0; ray < NumRays(site.R); ray++ {
		TraceRay(s.Grid, site, f, ray)
	}
	covered, total := 0, 0
	for dy := -site.R; dy <= site.R; dy++ {
		for dx := -site.R; dx <= site.R; dx++ {
			if dx == 0 && dy == 0 || dx*dx+dy*dy > site.R*site.R {
				continue
			}
			total++
			if !math.IsInf(float64(f.At(site.X+dx, site.Y+dy)), 1) {
				covered++
			}
		}
	}
	if frac := float64(covered) / float64(total); frac < 0.99 {
		t.Errorf("ray fan covered %.3f of ROI, want ≥ 0.99", frac)
	}
}

// runSolver executes a solver on the Alpha model.
func runSolver(t *testing.T, s *Scenario, solve func(*machine.Thread, *Scenario) *Output) *Output {
	t.Helper()
	var out *Output
	e := smp.New(smp.AlphaStation())
	_, err := e.Run("main", func(th *machine.Thread) { out = solve(th, s) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sequential is Sequential with default options, in runSolver's shape.
func sequential(th *machine.Thread, s *Scenario) *Output { return Sequential(th, s, Opt{}) }

func TestSequentialMaskingSane(t *testing.T) {
	s := tiny(5, 6)
	out := runSolver(t, s, sequential)
	if out.Masking.FiniteCells() == 0 {
		t.Fatal("no cells masked")
	}
	for _, v := range out.Masking.Vals {
		if v < 0 {
			t.Fatal("negative masking altitude")
		}
	}
}

func TestCoarseMatchesSequential(t *testing.T) {
	s := tiny(6, 8)
	want := runSolver(t, s, sequential)
	for _, workers := range []int{1, 3, 8} {
		workers := workers
		got := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
			return Coarse(th, sc, workers, 10, Opt{})
		})
		if !got.Masking.Equal(want.Masking) {
			t.Errorf("workers=%d: coarse masking differs from sequential", workers)
		}
	}
}

func TestCoarseBlockCountsVary(t *testing.T) {
	s := tiny(7, 5)
	a := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Coarse(th, sc, 2, 4, Opt{})
	})
	b := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Coarse(th, sc, 2, 10, Opt{})
	})
	if !a.Masking.Equal(b.Masking) {
		t.Error("blocking factor changed the result")
	}
	if a.Blocks >= b.Blocks {
		t.Errorf("finer blocking should touch more blocks: %d vs %d", a.Blocks, b.Blocks)
	}
}

func TestFineMatchesSequential(t *testing.T) {
	s := tiny(8, 6)
	want := runSolver(t, s, sequential)
	for _, cfg := range [][2]int{{1, 1}, {8, 4}, {48, 16}} {
		cfg := cfg
		got := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
			return Fine(th, sc, cfg[0], cfg[1], Opt{})
		})
		if !got.Masking.Equal(want.Masking) {
			t.Errorf("sectors=%d chunks=%d: fine masking differs", cfg[0], cfg[1])
		}
	}
}

func TestFineMatchesOnMTA(t *testing.T) {
	// Cross-machine determinism: the computation is machine-independent.
	s := tiny(9, 4)
	want := runSolver(t, s, sequential)
	var got *Output
	e := mta.New(mta.Params{Procs: 2})
	if _, err := e.Run("main", func(th *machine.Thread) {
		got = Fine(th, s, 48, 16, Opt{})
	}); err != nil {
		t.Fatal(err)
	}
	if !got.Masking.Equal(want.Masking) {
		t.Error("MTA fine-grained masking differs from Alpha sequential")
	}
}

func TestCoarseTempBytesGrowWithWorkers(t *testing.T) {
	s := tiny(10, 4)
	a := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Coarse(th, sc, 2, 10, Opt{})
	})
	b := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Coarse(th, sc, 4, 10, Opt{})
	})
	if b.TempBytes != 2*a.TempBytes {
		t.Errorf("TempBytes: 4 workers %d, 2 workers %d (want 2x)", b.TempBytes, a.TempBytes)
	}
}

func TestCoarseTempBytesFullScaleExceeds2GB(t *testing.T) {
	// The paper: hundreds of threads each needing a private temp array is
	// impractical on the 2 GB Tera MTA.
	if got := CoarseTempBytesFullScale(256); got <= 2<<30 {
		t.Errorf("256 workers need %d bytes, expected > 2 GiB", got)
	}
	if got := CoarseTempBytesFullScale(16); got >= 2<<30 {
		t.Errorf("16 workers need %d bytes, expected well under 2 GiB", got)
	}
}

func TestMergeRowRange(t *testing.T) {
	g := &Grid{W: 20, H: 20, Elev: make([]float32, 400)}
	m := NewMasking(g)
	site := &ThreatSite{X: 10, Y: 10, R: 3, SensorZ: 10}
	f := NewField(site)
	f.set(9, 10, 5)
	f.set(10, 10, 7)
	f.set(11, 10, 9)
	// Merge only x ∈ [10, 11).
	if n := m.MergeRowRange(f, 10-f.Y0, 10, 11); n != 1 {
		t.Errorf("merged %d cells, want 1", n)
	}
	if m.At(10, 10) != 7 {
		t.Errorf("masking(10,10) = %v, want 7", m.At(10, 10))
	}
	if !math.IsInf(float64(m.At(9, 10)), 1) {
		t.Error("cell outside range was merged")
	}
}

func TestMinCombineAcrossThreats(t *testing.T) {
	// Adding a threat can only lower (or keep) masking values.
	s1 := tiny(11, 2)
	s2 := &Scenario{Name: "plus", Grid: s1.Grid, Threats: append([]ThreatSite{}, s1.Threats...)}
	extra := s1.Threats[0]
	extra.X += 15
	extra.ID = len(s2.Threats)
	s2.Threats = append(s2.Threats, extra)

	a := runSolver(t, s1, sequential)
	b := runSolver(t, s2, sequential)
	for i := range a.Masking.Vals {
		if b.Masking.Vals[i] > a.Masking.Vals[i] {
			t.Fatal("adding a threat increased a masking altitude")
		}
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(0.05)
	if len(suite) != 5 {
		t.Fatalf("suite has %d scenarios, want 5", len(suite))
	}
	for _, s := range suite {
		if len(s.Threats) != 3 {
			t.Errorf("%s: %d threats, want 3 at scale 0.05", s.Name, len(s.Threats))
		}
		if s.Grid.W != DefaultSide {
			t.Errorf("%s: grid side %d, want %d (full size at every scale)", s.Name, s.Grid.W, DefaultSide)
		}
	}
}

// Property: masking is deterministic and order-independent — shuffling the
// threat list gives an identical result.
func TestPropertyThreatOrderIrrelevant(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := tiny(seed, 4)
		shuffled := &Scenario{Name: "shuf", Grid: s.Grid, Threats: append([]ThreatSite{}, s.Threats...)}
		rng.Shuffle(len(shuffled.Threats), func(i, j int) {
			shuffled.Threats[i], shuffled.Threats[j] = shuffled.Threats[j], shuffled.Threats[i]
		})
		a := runSolver(t, s, sequential)
		b := runSolver(t, shuffled, sequential)
		return a.Masking.Equal(b.Masking)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: all variants agree for random small scenarios and parameters.
func TestPropertyVariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := tiny(seed, 2+rng.Intn(4))
		workers := 1 + rng.Intn(6)
		blocks := 1 + rng.Intn(12)
		sectors := 1 + rng.Intn(30)
		chunks := 1 + rng.Intn(10)
		var seq, coarse, fine *Output
		e := smp.New(smp.Exemplar(4))
		if _, err := e.Run("main", func(th *machine.Thread) {
			seq = Sequential(th, s, Opt{})
			coarse = Coarse(th, s, workers, blocks, Opt{})
			fine = Fine(th, s, sectors, chunks, Opt{})
		}); err != nil {
			return false
		}
		return seq.Masking.Equal(coarse.Masking) && seq.Masking.Equal(fine.Masking)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func TestHybridMatchesSequential(t *testing.T) {
	s := tiny(12, 8)
	want := runSolver(t, s, sequential)
	for _, cfg := range [][4]int{{1, 8, 4, 10}, {3, 16, 8, 4}, {4, 48, 16, 10}} {
		cfg := cfg
		got := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
			return Hybrid(th, sc, cfg[0], cfg[1], cfg[2], cfg[3], Opt{})
		})
		if !got.Masking.Equal(want.Masking) {
			t.Errorf("hybrid %v: masking differs from sequential", cfg)
		}
	}
}

func TestHybridTempBytesScaleWithWorkers(t *testing.T) {
	s := tiny(13, 6)
	a := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Hybrid(th, sc, 2, 8, 4, 10, Opt{})
	})
	b := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Hybrid(th, sc, 4, 8, 4, 10, Opt{})
	})
	if b.TempBytes != 2*a.TempBytes {
		t.Errorf("TempBytes: 4 workers %d, 2 workers %d (want 2x)", b.TempBytes, a.TempBytes)
	}
}

func TestHybridOverlapsSerialDrivers(t *testing.T) {
	// On a many-processor MTA, the hybrid overlaps per-threat serial driver
	// sections that bound the pure fine-grained variant (Amdahl).
	s := tiny(14, 8)
	elapsed := func(solve func(th *machine.Thread, sc *Scenario) *Output) float64 {
		e := mta.New(mta.Params{Procs: 8, NetLatencyMult: 1.0, NetBandwidthEff: 1.0})
		var out *Output
		res, err := e.Run("tm", func(th *machine.Thread) { out = solve(th, s) })
		if err != nil {
			t.Fatal(err)
		}
		_ = out
		return res.Stats.Cycles
	}
	fine := elapsed(func(th *machine.Thread, sc *Scenario) *Output {
		return Fine(th, sc, 96, 64, Opt{})
	})
	hybrid := elapsed(func(th *machine.Thread, sc *Scenario) *Output {
		return Hybrid(th, sc, 4, 48, 32, 10, Opt{})
	})
	if hybrid >= fine {
		t.Errorf("hybrid (%.0f cycles) not faster than fine (%.0f) on 8 procs", hybrid, fine)
	}
}

func TestMaskingChecksumSensitive(t *testing.T) {
	g := &Grid{W: 10, H: 10, Elev: make([]float32, 100)}
	a := NewMasking(g)
	b := NewMasking(g)
	if a.Checksum() != b.Checksum() {
		t.Error("identical maskings differ")
	}
	b.Vals[55] = 123
	if a.Checksum() == b.Checksum() {
		t.Error("changed cell not detected")
	}
	// +Inf vs 0 must differ (coverage matters).
	c := NewMasking(g)
	c.Vals[0] = 0
	if a.Checksum() == c.Checksum() {
		t.Error("Inf→0 not detected")
	}
	if !math.IsInf(float64(a.Vals[0]), 1) {
		t.Error("fresh masking not +Inf")
	}
}
