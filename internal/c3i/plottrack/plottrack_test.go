package plottrack

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// testParams is a small but contested scenario geometry for solver tests:
// enough plots per formation that gates overlap and bids race.
var testParams = GenParams{Field: 256, NumTracks: 18, NumPlots: 20, Frames: 2, Seed: 7}

// bruteForce is an independent reference: exhaustive search over all
// feasible assignments of one frame's plots to gated tracks (or new
// tracks), returning the minimum total cost. Exponential — keep the frame
// tiny.
func bruteForce(s *Scenario, frame []Plot, gate int) int64 {
	type cand struct {
		track int
		cost  int64
	}
	cands := make([][]cand, len(frame))
	for i, p := range frame {
		for j, tr := range s.Tracks {
			if c, ok := s.PairCost(p, tr, gate); ok {
				cands[i] = append(cands[i], cand{j, c})
			}
		}
	}
	used := make([]bool, len(s.Tracks))
	var rec func(i int) int64
	rec = func(i int) int64 {
		if i == len(frame) {
			return 0
		}
		best := NewTrackCost(gate) + rec(i+1)
		for _, c := range cands[i] {
			if used[c.track] {
				continue
			}
			used[c.track] = true
			if v := c.cost + rec(i+1); v < best {
				best = v
			}
			used[c.track] = false
		}
		return best
	}
	return rec(0)
}

func runOn(t *testing.T, e *machine.Engine, solve func(*machine.Thread) *Output) *Output {
	t.Helper()
	var out *Output
	if _, err := e.Run("test", func(th *machine.Thread) { out = solve(th) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func totalCost(out *Output) int64 {
	var sum int64
	for _, c := range out.FrameCost {
		sum += c
	}
	return sum
}

func TestGenScenarioDeterministic(t *testing.T) {
	a := GenScenario("d", testParams)
	b := GenScenario("d", testParams)
	if len(a.Tracks) != len(b.Tracks) || len(a.Frames) != len(b.Frames) {
		t.Fatal("sizes differ between identical generations")
	}
	for i := range a.Tracks {
		if a.Tracks[i] != b.Tracks[i] {
			t.Fatalf("track %d differs", i)
		}
	}
	for f := range a.Frames {
		for i := range a.Frames[f] {
			if a.Frames[f][i] != b.Frames[f][i] {
				t.Fatalf("frame %d plot %d differs", f, i)
			}
		}
	}
	// The frame must actually be contested: some track gated by >1 plot.
	counts := make([]int, len(a.Tracks))
	contested := false
	for _, p := range a.Frames[0] {
		for j, tr := range a.Tracks {
			if _, ok := a.PairCost(p, tr, DefaultGate); ok {
				counts[j]++
				if counts[j] > 1 {
					contested = true
				}
			}
		}
	}
	if !contested {
		t.Error("no contested track — the scenario exercises no synchronization")
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	p := GenParams{Field: 128, NumTracks: 7, NumPlots: 8, Frames: 2, Seed: 11}
	s := GenScenario("bf", p)
	out := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, DefaultParams(), DefaultCosts)
	})
	if len(out.FrameCost) != len(s.Frames) {
		t.Fatalf("%d frame costs for %d frames", len(out.FrameCost), len(s.Frames))
	}
	for f, frame := range s.Frames {
		if want := bruteForce(s, frame, DefaultGate); out.FrameCost[f] != want {
			t.Errorf("frame %d: auction cost %d, brute force %d", f, out.FrameCost[f], want)
		}
	}
	if out.Assigned+out.NewTracks != len(s.Frames)*len(s.Frames[0]) {
		t.Errorf("assignment covers %d of %d plots",
			out.Assigned+out.NewTracks, len(s.Frames)*len(s.Frames[0]))
	}
	if out.Assigned == 0 {
		t.Error("no plot matched any track — gating broken")
	}
}

func TestVariantsProduceIdenticalCosts(t *testing.T) {
	s := GenScenario("agree", testParams)
	seq := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, DefaultParams(), DefaultCosts)
	})
	if totalCost(seq) <= 0 {
		t.Fatalf("sequential cost %d out of range", totalCost(seq))
	}
	variants := []struct {
		name  string
		build func() *machine.Engine
		solve func(*machine.Thread) *Output
	}{
		{"coarse/ppro", func() *machine.Engine { return smp.New(smp.PentiumProSMP(4)) },
			func(th *machine.Thread) *Output { return Coarse(th, s, 4, DefaultParams(), DefaultCosts) }},
		{"coarse/tera", func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(th *machine.Thread) *Output { return Coarse(th, s, 16, DefaultParams(), DefaultCosts) }},
		{"fine/tera", func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(th *machine.Thread) *Output { return Fine(th, s, 32, DefaultParams(), FineDefaultCosts) }},
		{"fine/tera2", func() *machine.Engine { return mta.New(mta.Params{Procs: 2}) },
			func(th *machine.Thread) *Output { return Fine(th, s, 64, DefaultParams(), FineDefaultCosts) }},
	}
	for _, v := range variants {
		out := runOn(t, v.build(), v.solve)
		if len(out.FrameCost) != len(seq.FrameCost) {
			t.Errorf("%s: %d frame costs, want %d", v.name, len(out.FrameCost), len(seq.FrameCost))
			continue
		}
		for f := range seq.FrameCost {
			if out.FrameCost[f] != seq.FrameCost[f] {
				t.Errorf("%s: frame %d cost %d, sequential %d",
					v.name, f, out.FrameCost[f], seq.FrameCost[f])
			}
		}
		if out.Bids < int64(len(s.Frames)*len(s.Frames[0])) {
			t.Errorf("%s: %d bids for %d plots — every plot must bid at least once",
				v.name, out.Bids, len(s.Frames)*len(s.Frames[0]))
		}
	}
}

// TestPaperScaleAgreement is the acceptance check at the registered paper
// scale: one full-size scenario, all three styles, one checksum.
func TestPaperScaleAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale agreement skipped in -short mode")
	}
	p := SuiteScale(1)
	p.Seed = 401
	s := GenScenario("paper", p)
	if len(s.Frames) != DefaultFrames || len(s.Frames[0]) != DefaultPlots {
		t.Fatalf("scale 1 generated %d frames × %d plots, want %d × %d",
			len(s.Frames), len(s.Frames[0]), DefaultFrames, DefaultPlots)
	}
	seq := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, DefaultParams(), DefaultCosts)
	})
	coarse := runOn(t, smp.New(smp.Exemplar(16)), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, DefaultParams(), DefaultCosts)
	})
	fine := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Fine(th, s, 256, DefaultParams(), FineDefaultCosts)
	})
	sum := Checksum(seq.FrameCost, len(s.Frames[0]), len(s.Tracks))
	for name, out := range map[string]*Output{"coarse": coarse, "fine": fine} {
		if got := Checksum(out.FrameCost, len(s.Frames[0]), len(s.Tracks)); got != sum {
			t.Errorf("%s checksum %016x != sequential %016x (cost %d vs %d)",
				name, got, sum, totalCost(out), totalCost(seq))
		}
	}
}

func TestCoarseRunsDeterministically(t *testing.T) {
	s := GenScenario("det", testParams)
	a := runOn(t, mta.New(mta.Params{Procs: 2}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, DefaultParams(), DefaultCosts)
	})
	b := runOn(t, mta.New(mta.Params{Procs: 2}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, DefaultParams(), DefaultCosts)
	})
	if a.Bids != b.Bids {
		t.Errorf("bid counts differ between identical runs: %d vs %d", a.Bids, b.Bids)
	}
	if totalCost(a) != totalCost(b) || a.Assigned != b.Assigned || a.NewTracks != b.NewTracks {
		t.Errorf("results differ between identical runs: %+v vs %+v", a, b)
	}
}

func TestCoarseBidMemoryGrowsWithWorkers(t *testing.T) {
	s := GenScenario("mem", testParams)
	few := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 2, DefaultParams(), DefaultCosts)
	})
	many := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, DefaultParams(), DefaultCosts)
	})
	if many.BidBufferBytes <= few.BidBufferBytes {
		t.Errorf("bid buffer bytes did not grow with workers: %d vs %d",
			many.BidBufferBytes, few.BidBufferBytes)
	}
	fine := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Fine(th, s, 32, DefaultParams(), FineDefaultCosts)
	})
	if fine.BidBufferBytes != 0 {
		t.Errorf("fine-grained variant allocated %d private bid bytes, want none", fine.BidBufferBytes)
	}
	if CoarseBidBytesFullScale(256) <= 2<<30 {
		t.Error("full-scale coarse bid storage should exceed the MTA's 2 GB")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	s := GenScenario("bad", GenParams{Field: 128, NumTracks: 4, NumPlots: 4, Seed: 1})
	cases := []struct {
		label string
		p     Params
	}{
		{"zero gate", Params{Gate: 0, Epsilon: 1}},
		{"zero epsilon", Params{Gate: DefaultGate, Epsilon: 0}},
		{"negative rounds", Params{Gate: DefaultGate, Epsilon: 1, Rounds: -1}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.label)
				}
			}()
			e := smp.New(smp.AlphaStation())
			e.Run("bad", func(th *machine.Thread) {
				Sequential(th, s, tc.p, DefaultCosts)
			})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero workers: no panic")
			}
		}()
		e := smp.New(smp.AlphaStation())
		e.Run("bad", func(th *machine.Thread) {
			Coarse(th, s, 0, DefaultParams(), DefaultCosts)
		})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero threads: no panic")
			}
		}()
		e := smp.New(smp.AlphaStation())
		e.Run("bad", func(th *machine.Thread) {
			Fine(th, s, 0, DefaultParams(), FineDefaultCosts)
		})
	}()
}

func TestSuiteShapes(t *testing.T) {
	scs := Suite(0.1)
	if len(scs) != 5 {
		t.Fatalf("%d scenarios, want 5", len(scs))
	}
	for _, s := range scs {
		if s.Field != DefaultField {
			t.Errorf("%s: field %d, want full size at any scale", s.Name, s.Field)
		}
		if len(s.Tracks) != DefaultTracks {
			t.Errorf("%s: %d tracks, want the full database at any scale", s.Name, len(s.Tracks))
		}
		if len(s.Frames) != DefaultFrames {
			t.Errorf("%s: %d frames, want %d at any scale", s.Name, len(s.Frames), DefaultFrames)
		}
		for f, frame := range s.Frames {
			if len(frame) != 50 {
				t.Errorf("%s frame %d: %d plots at scale 0.1, want 50", s.Name, f, len(frame))
			}
		}
		if s.Units() != 50 {
			t.Errorf("%s: Units() = %d, want plots/frame", s.Name, s.Units())
		}
	}
	if p := SuiteScale(0); p.NumPlots < 1 || p.NumTracks < 1 {
		t.Error("tiny scales must keep at least one plot and track")
	}
}

// TestRoundsGuard: a generous guard must not fire on a convergent run; an
// absurdly tight one must (the diagnostic for a livelocked auction).
func TestRoundsGuard(t *testing.T) {
	s := GenScenario("guard", testParams)
	out := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, Params{Gate: DefaultGate, Epsilon: 1, Rounds: 100}, DefaultCosts)
	})
	if totalCost(out) <= 0 {
		t.Fatalf("guarded run produced cost %d", totalCost(out))
	}
	defer func() {
		if recover() == nil {
			t.Error("1-round guard on a contested frame did not fire")
		}
	}()
	e := mta.New(mta.Params{Procs: 1})
	e.Run("guard", func(th *machine.Thread) {
		Coarse(th, s, 8, Params{Gate: DefaultGate, Epsilon: 1, Rounds: 1}, DefaultCosts)
	})
}
