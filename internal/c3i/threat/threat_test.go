package threat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

func smallScenario(seed int64) *Scenario {
	return GenScenario("test", GenParams{NumThreats: 30, NumWeapons: 10, Seed: seed})
}

func TestBallisticsImpact(t *testing.T) {
	th := Threat{Vel: Vec3{100, 0, 980}}
	// Impact when z returns to zero: t = 2·980/9.8 = 200 s.
	if got := th.ImpactTime(); math.Abs(got-200) > 1e-9 {
		t.Errorf("ImpactTime = %v, want 200", got)
	}
	p := th.Position(th.ImpactTime())
	if math.Abs(p.Z) > 1e-6 {
		t.Errorf("z at impact = %v, want 0", p.Z)
	}
	// Apex at t=100: z = 980·100 − 4.9·10⁴ = 49000.
	if z := th.Position(100).Z; math.Abs(z-49000) > 1e-6 {
		t.Errorf("apex z = %v, want 49000", z)
	}
}

func TestCanInterceptEnvelope(t *testing.T) {
	th := Threat{Launch: Vec3{0, 0, 0}, Vel: Vec3{100, 0, 1470}, Detect: 10}
	w := Weapon{
		Pos:      Vec3{15000, 0, 0},
		MinRange: 1000, MaxRange: 60000,
		MinAlt: 2000, MaxAlt: 80000,
		Speed: 2000, Ready: 0,
	}
	// Before detection: never.
	if w.CanIntercept(&th, 5) {
		t.Error("intercept before detection")
	}
	// Right at detection the interceptor has had no fly-out time.
	if w.CanIntercept(&th, 10.0) {
		t.Error("intercept with zero fly-out time at nonzero range")
	}
	// Ascending through the altitude window with fly-out time: feasible.
	if !w.CanIntercept(&th, 35) {
		t.Error("no intercept during ascent inside the envelope")
	}
	// Mid-flight the threat is above MaxAlt (apex ≈ 110 km): infeasible —
	// this is what produces two interception windows for one pair.
	if w.CanIntercept(&th, 150) {
		t.Error("intercept above MaxAlt at apex")
	}
	// Descending back through the window: feasible again.
	if !w.CanIntercept(&th, 270) {
		t.Error("no intercept during descent inside the envelope")
	}
	// Below minimum altitude near impact.
	impact := th.ImpactTime()
	if w.CanIntercept(&th, impact-0.1) {
		t.Error("intercept below MinAlt just before impact")
	}
}

func TestReadyTimeBlocksEarlyIntercept(t *testing.T) {
	th := Threat{Vel: Vec3{50, 0, 1470}, Detect: 5}
	w := Weapon{Pos: Vec3{5000, 0, 0}, MinRange: 0, MaxRange: 1e6,
		MinAlt: 0, MaxAlt: 1e6, Speed: 5000, Ready: 100}
	if w.CanIntercept(&th, 99) {
		t.Error("intercept before weapon ready")
	}
	if !w.CanIntercept(&th, 101) {
		t.Error("no intercept after ready despite permissive envelope")
	}
}

func TestPairIntervalsMaximalRuns(t *testing.T) {
	s := smallScenario(7)
	for ti := range s.Threats {
		for wi := range s.Weapons {
			th, w := &s.Threats[ti], &s.Weapons[wi]
			var ivs []Interval
			s.PairIntervals(th, w, func(t1, t2 int) {
				ivs = append(ivs, Interval{Threat: ti, Weapon: wi, T1: t1, T2: t2})
			})
			if err := Validate(s, ivs); err != nil {
				t.Fatalf("pair (%d,%d): %v", ti, wi, err)
			}
		}
	}
}

func TestScenarioGenerationDeterministic(t *testing.T) {
	a := GenScenario("a", GenParams{NumThreats: 50, NumWeapons: 5, Seed: 3})
	b := GenScenario("b", GenParams{NumThreats: 50, NumWeapons: 5, Seed: 3})
	for i := range a.Threats {
		if a.Threats[i].Launch != b.Threats[i].Launch || a.Threats[i].Vel != b.Threats[i].Vel {
			t.Fatalf("threat %d differs between identical seeds", i)
		}
	}
	c := GenScenario("c", GenParams{NumThreats: 50, NumWeapons: 5, Seed: 4})
	same := true
	for i := range a.Threats {
		if a.Threats[i].Launch != c.Threats[i].Launch {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical threats")
	}
}

func TestScenarioHasInterceptionWork(t *testing.T) {
	// The synthetic geometry must actually produce intervals (threats
	// overfly weapons) and multiple windows for some pairs. Multi-window
	// pairs are rare (~0.1% of pairs), so use a larger sample.
	s := GenScenario("stats", GenParams{NumThreats: 200, NumWeapons: 25, Seed: 11})
	total := 0
	multi := 0
	for ti := range s.Threats {
		for wi := range s.Weapons {
			n := 0
			s.PairIntervals(&s.Threats[ti], &s.Weapons[wi], func(_, _ int) { n++ })
			total += n
			if n > 1 {
				multi++
			}
		}
	}
	if total == 0 {
		t.Fatal("scenario produced no interception intervals")
	}
	if multi == 0 {
		t.Error("no pair produced multiple windows; generator statistics off")
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(0.05)
	if len(suite) != 5 {
		t.Fatalf("suite has %d scenarios, want 5", len(suite))
	}
	for _, s := range suite {
		if len(s.Threats) != 50 {
			t.Errorf("%s: %d threats, want 50 at scale 0.05", s.Name, len(s.Threats))
		}
		if len(s.Weapons) != 25 {
			t.Errorf("%s: %d weapons, want 25", s.Name, len(s.Weapons))
		}
	}
	if Suite(0.0001)[0] == nil || len(Suite(0.0001)[0].Threats) < 4 {
		t.Error("tiny scale must clamp to a usable threat count")
	}
}

func TestTotalStepsPositive(t *testing.T) {
	s := smallScenario(1)
	if s.TotalSteps() <= 0 {
		t.Error("TotalSteps = 0")
	}
	// Roughly: pairs × ~1300 steps.
	pairs := int64(len(s.Threats) * len(s.Weapons))
	if s.TotalSteps() < pairs*500 || s.TotalSteps() > pairs*2500 {
		t.Errorf("TotalSteps = %d, outside plausible range for %d pairs", s.TotalSteps(), pairs)
	}
}

// runSolver executes a solver on the Alpha model (fast, single-threaded
// semantics are irrelevant to output correctness).
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

// sequential is Sequential at the calibrated costs, in runSolver's shape.
func sequential(th *machine.Thread, s *Scenario) *Output { return Sequential(th, s, DefaultCosts) }

// fineGrained is FineGrained at the calibrated costs, in runSolver's shape.
func fineGrained(th *machine.Thread, s *Scenario) *Output { return FineGrained(th, s, DefaultCosts) }

func TestSequentialOutputValid(t *testing.T) {
	s := smallScenario(2)
	out := runSolver(t, s, sequential)
	if len(out.Intervals) == 0 {
		t.Fatal("no intervals")
	}
	if err := Validate(s, out.Intervals); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedMatchesSequential(t *testing.T) {
	s := smallScenario(3)
	want := runSolver(t, s, sequential)
	for _, chunks := range []int{1, 2, 7, 30, 64} {
		chunks := chunks
		got := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
			return Chunked(th, sc, chunks, DefaultCosts)
		})
		if err := Verify(got.Intervals, want.Intervals); err != nil {
			t.Errorf("chunks=%d: %v", chunks, err)
		}
	}
}

func TestChunkedDeterministicOrder(t *testing.T) {
	// Chunked output must be in threat-major order (chunks concatenated in
	// order), exactly like the sequential program.
	s := smallScenario(4)
	seqOut := runSolver(t, s, sequential)
	chunkOut := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Chunked(th, sc, 8, DefaultCosts)
	})
	for i := range seqOut.Intervals {
		if seqOut.Intervals[i] != chunkOut.Intervals[i] {
			t.Fatalf("order differs at %d: %+v vs %+v", i, seqOut.Intervals[i], chunkOut.Intervals[i])
		}
	}
}

func TestFineGrainedMatchesSequentialAsSet(t *testing.T) {
	s := smallScenario(5)
	want := runSolver(t, s, sequential)
	got := runSolver(t, s, fineGrained)
	if err := Verify(got.Intervals, want.Intervals); err != nil {
		t.Fatal(err)
	}
}

func TestFineGrainedOrderDiffersOnMTA(t *testing.T) {
	// The paper: "An unwelcome consequence of this approach is
	// nondeterministic ordering of the elements of the intervals array".
	// Under many concurrent streams the emission order differs from the
	// sequential order even though the set matches.
	s := smallScenario(6)
	var seqOut, fgOut *Output
	e := mta.New(mta.Params{Procs: 1})
	if _, err := e.Run("main", func(th *machine.Thread) {
		seqOut = Sequential(th, s, DefaultCosts)
	}); err != nil {
		t.Fatal(err)
	}
	e2 := mta.New(mta.Params{Procs: 1})
	if _, err := e2.Run("main", func(th *machine.Thread) {
		fgOut = FineGrained(th, s, DefaultCosts)
	}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(fgOut.Intervals, seqOut.Intervals); err != nil {
		t.Fatal(err)
	}
	sameOrder := true
	for i := range seqOut.Intervals {
		if seqOut.Intervals[i] != fgOut.Intervals[i] {
			sameOrder = false
			break
		}
	}
	if sameOrder {
		t.Error("fine-grained emission order identical to sequential; expected interleaving")
	}
}

func TestChunkedArrayBytesGrowWithChunks(t *testing.T) {
	// The paper's drawback: "the larger the number of chunks, the larger the
	// intervals array."
	s := smallScenario(8)
	small := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Chunked(th, sc, 2, DefaultCosts)
	})
	big := runSolver(t, s, func(th *machine.Thread, sc *Scenario) *Output {
		return Chunked(th, sc, 30, DefaultCosts)
	})
	if big.ArrayBytes < small.ArrayBytes {
		t.Errorf("ArrayBytes: 30 chunks %d < 2 chunks %d", big.ArrayBytes, small.ArrayBytes)
	}
}

func TestVerifyDetectsMismatch(t *testing.T) {
	a := []Interval{{0, 0, 1, 2}}
	b := []Interval{{0, 0, 1, 3}}
	if err := Verify(a, b); err == nil {
		t.Error("Verify accepted mismatched intervals")
	}
	if err := Verify(a, a[:0]); err == nil {
		t.Error("Verify accepted length mismatch")
	}
	if err := Verify(a, a); err != nil {
		t.Errorf("Verify rejected identical sets: %v", err)
	}
}

func TestVerifyOrderInsensitive(t *testing.T) {
	a := []Interval{{0, 0, 1, 2}, {1, 0, 3, 4}}
	b := []Interval{{1, 0, 3, 4}, {0, 0, 1, 2}}
	if err := Verify(a, b); err != nil {
		t.Errorf("Verify is order-sensitive: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := smallScenario(9)
	out := runSolver(t, s, sequential)
	if len(out.Intervals) == 0 {
		t.Skip("no intervals")
	}
	bad := make([]Interval, len(out.Intervals))
	copy(bad, out.Intervals)
	bad[0].T2 = bad[0].T1 - 1 // empty window
	if err := Validate(s, bad); err == nil {
		t.Error("Validate accepted an empty window")
	}
	copy(bad, out.Intervals)
	bad[0].Weapon = len(s.Weapons) + 5
	if err := Validate(s, bad); err == nil {
		t.Error("Validate accepted an out-of-range weapon")
	}
}

// Property: for random small scenarios, chunked output equals sequential
// output for a random chunk count.
func TestPropertyChunkingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := GenScenario("prop", GenParams{
			NumThreats: 5 + rng.Intn(12),
			NumWeapons: 2 + rng.Intn(5),
			Seed:       rng.Int63(),
		})
		chunks := 1 + rng.Intn(20)
		var want, got *Output
		e := smp.New(smp.AlphaStation())
		if _, err := e.Run("main", func(th *machine.Thread) {
			want = Sequential(th, s, DefaultCosts)
			got = Chunked(th, s, chunks, DefaultCosts)
		}); err != nil {
			return false
		}
		return Verify(got.Intervals, want.Intervals) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: intervals always satisfy the structural invariants.
func TestPropertyIntervalInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := GenScenario("prop", GenParams{
			NumThreats: 5 + rng.Intn(15),
			NumWeapons: 2 + rng.Intn(6),
			Seed:       rng.Int63(),
		})
		var out *Output
		e := smp.New(smp.AlphaStation())
		if _, err := e.Run("main", func(th *machine.Thread) {
			out = Sequential(th, s, DefaultCosts)
		}); err != nil {
			return false
		}
		return Validate(s, out.Intervals) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestIntervalsChecksumOrderInsensitive(t *testing.T) {
	a := []Interval{{Threat: 0, Weapon: 1, T1: 5, T2: 9}, {Threat: 2, Weapon: 0, T1: 1, T2: 2}}
	b := []Interval{a[1], a[0]}
	if Checksum(a) != Checksum(b) {
		t.Error("checksum depends on order")
	}
	c := append([]Interval{}, a...)
	c[0].T2 = 10
	if Checksum(a) == Checksum(c) {
		t.Error("checksum missed a changed interval")
	}
	if Checksum(a) == Checksum(a[:1]) {
		t.Error("checksum missed a dropped interval")
	}
}
