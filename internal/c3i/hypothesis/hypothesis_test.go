package hypothesis

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// testParams is a small but contested scenario geometry for solver tests:
// ambiguity clusters ensure several hypotheses share gated observations, so
// the reduction actually contests score words.
var testParams = GenParams{Field: 256, NumHyps: 40, NumObs: 48, Steps: 8, Seed: 7}

// naiveScores is an independent reference: the scoring reduction computed
// directly from the pair-score definition, no machine, no batching.
func naiveScores(s *Scenario, gate int) []int64 {
	scores := make([]int64, len(s.Hyps))
	for _, o := range s.Obs {
		for j := range s.Hyps {
			if sc, ok := s.PairScore(s.Hyps[j], o, gate); ok {
				scores[j] += sc
			}
		}
	}
	return scores
}

func runOn(t *testing.T, e *machine.Engine, solve func(*machine.Thread) *Output) *Output {
	t.Helper()
	var out *Output
	if _, err := e.Run("test", func(th *machine.Thread) { out = solve(th) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenScenarioDeterministic(t *testing.T) {
	a := GenScenario("d", testParams)
	b := GenScenario("d", testParams)
	if len(a.Hyps) != len(b.Hyps) || len(a.Obs) != len(b.Obs) {
		t.Fatal("sizes differ between identical generations")
	}
	for i := range a.Hyps {
		if a.Hyps[i] != b.Hyps[i] {
			t.Fatalf("hypothesis %d differs", i)
		}
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("observation %d differs", i)
		}
	}
	// The stream must be time-ordered with IDs in stream order.
	for i := 1; i < len(a.Obs); i++ {
		if a.Obs[i].T < a.Obs[i-1].T {
			t.Fatalf("observation stream not time-ordered at %d", i)
		}
	}
	for i, o := range a.Obs {
		if o.ID != i {
			t.Fatalf("observation %d has ID %d", i, o.ID)
		}
	}
	// The scenario must actually be contested: some observation gated by >1
	// hypothesis (the overlapping ambiguity clusters).
	contested := false
	for _, o := range a.Obs {
		n := 0
		for _, h := range a.Hyps {
			if _, ok := a.PairScore(h, o, DefaultGate); ok {
				n++
			}
		}
		if n > 1 {
			contested = true
			break
		}
	}
	if !contested {
		t.Error("no contested score word — the scenario exercises no synchronization")
	}
}

func TestSequentialMatchesNaiveReduction(t *testing.T) {
	s := GenScenario("ref", testParams)
	want := naiveScores(s, DefaultGate)
	out := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, DefaultParams(), DefaultCosts)
	})
	if len(out.Scores) != len(want) {
		t.Fatalf("%d scores for %d hypotheses", len(out.Scores), len(want))
	}
	for j := range want {
		if out.Scores[j] != want[j] {
			t.Errorf("hypothesis %d: score %d, reference %d", j, out.Scores[j], want[j])
		}
	}
	if out.Best <= 0 {
		t.Errorf("best score %d — no hypothesis gathered evidence", out.Best)
	}
	if len(out.Survivors) == 0 {
		t.Error("pruning left no survivors")
	}
	if out.Gated == 0 {
		t.Error("no gated pairs — gating broken")
	}
	// Survivors must be supported and above the threshold; ascending ids.
	for i, id := range out.Survivors {
		sc := out.Scores[id]
		if sc <= 0 || sc*1000 < out.Best*DefaultPrune {
			t.Errorf("survivor %d (score %d) below threshold of best %d", id, sc, out.Best)
		}
		if i > 0 && id <= out.Survivors[i-1] {
			t.Errorf("survivor ids not ascending at %d", i)
		}
	}
}

func TestVariantsProduceIdenticalScores(t *testing.T) {
	s := GenScenario("agree", testParams)
	seq := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s, DefaultParams(), DefaultCosts)
	})
	sum := Checksum(seq, len(s.Hyps), len(s.Obs))
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
		for j := range seq.Scores {
			if out.Scores[j] != seq.Scores[j] {
				t.Fatalf("%s: hypothesis %d score %d, sequential %d",
					v.name, j, out.Scores[j], seq.Scores[j])
			}
		}
		if got := Checksum(out, len(s.Hyps), len(s.Obs)); got != sum {
			t.Errorf("%s: checksum %016x != sequential %016x", v.name, got, sum)
		}
		if out.Gated != seq.Gated {
			t.Errorf("%s: %d gated pairs, sequential %d", v.name, out.Gated, seq.Gated)
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
	p.Seed = 501
	s := GenScenario("paper", p)
	if len(s.Obs) != DefaultObs || len(s.Hyps) != DefaultHyps {
		t.Fatalf("scale 1 generated %d obs × %d hyps, want %d × %d",
			len(s.Obs), len(s.Hyps), DefaultObs, DefaultHyps)
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
	sum := Checksum(seq, len(s.Hyps), len(s.Obs))
	for name, out := range map[string]*Output{"coarse": coarse, "fine": fine} {
		if got := Checksum(out, len(s.Hyps), len(s.Obs)); got != sum {
			t.Errorf("%s checksum %016x != sequential %016x", name, got, sum)
		}
	}
}

func TestGateAndPruneChangeResults(t *testing.T) {
	s := GenScenario("tune", testParams)
	run := func(p Params) *Output {
		return runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
			return Sequential(th, s, p, DefaultCosts)
		})
	}
	base := run(DefaultParams())
	wide := run(Params{Gate: 2 * DefaultGate, Prune: DefaultPrune})
	if wide.Gated <= base.Gated {
		t.Errorf("doubling the gate did not admit more pairs: %d vs %d", wide.Gated, base.Gated)
	}
	if Checksum(wide, len(s.Hyps), len(s.Obs)) == Checksum(base, len(s.Hyps), len(s.Obs)) {
		t.Error("gate change left the checksum unchanged")
	}
	all := run(Params{Gate: DefaultGate, Prune: 0})
	only := run(Params{Gate: DefaultGate, Prune: 1000})
	if len(all.Survivors) < len(base.Survivors) {
		t.Errorf("prune 0 kept %d survivors, threshold %d kept %d",
			len(all.Survivors), DefaultPrune, len(base.Survivors))
	}
	if len(only.Survivors) >= len(all.Survivors) {
		t.Errorf("prune 1000 kept %d survivors, prune 0 kept %d",
			len(only.Survivors), len(all.Survivors))
	}
	for _, id := range only.Survivors {
		if all.Scores[id] != all.Best {
			t.Errorf("prune 1000 survivor %d scores %d, best is %d", id, all.Scores[id], all.Best)
		}
	}
}

func TestCoarsePartialMemoryGrowsWithWorkers(t *testing.T) {
	s := GenScenario("mem", testParams)
	few := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 2, DefaultParams(), DefaultCosts)
	})
	many := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, DefaultParams(), DefaultCosts)
	})
	if many.PartialBytes <= few.PartialBytes {
		t.Errorf("partial-score bytes did not grow with workers: %d vs %d",
			many.PartialBytes, few.PartialBytes)
	}
	if want := uint64(16) * uint64(len(s.Hyps)) * 8; many.PartialBytes != want {
		t.Errorf("16 workers allocated %d partial bytes, want %d", many.PartialBytes, want)
	}
	fine := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Fine(th, s, 32, DefaultParams(), FineDefaultCosts)
	})
	if fine.PartialBytes != 0 {
		t.Errorf("fine-grained variant allocated %d private bytes, want none", fine.PartialBytes)
	}
	if CoarsePartialBytesFullScale(256) <= 2<<30 {
		t.Error("full-scale coarse partial storage should exceed the MTA's 2 GB")
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
	if a.Gated != b.Gated || a.Best != b.Best || len(a.Survivors) != len(b.Survivors) {
		t.Errorf("results differ between identical runs: %+v vs %+v", a, b)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	s := GenScenario("bad", GenParams{Field: 128, NumHyps: 4, NumObs: 4, Steps: 4, Seed: 1})
	cases := []struct {
		label string
		p     Params
	}{
		{"zero gate", Params{Gate: 0, Prune: DefaultPrune}},
		{"negative prune", Params{Gate: DefaultGate, Prune: -1}},
		{"prune over 1000", Params{Gate: DefaultGate, Prune: 1001}},
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
		if len(s.Hyps) != DefaultHyps {
			t.Errorf("%s: %d hypotheses, want the full set at any scale", s.Name, len(s.Hyps))
		}
		if s.Steps != DefaultSteps {
			t.Errorf("%s: %d steps, want %d at any scale", s.Name, s.Steps, DefaultSteps)
		}
		if len(s.Obs) != 40 {
			t.Errorf("%s: %d observations at scale 0.1, want 40", s.Name, len(s.Obs))
		}
		if s.Units() != 40 {
			t.Errorf("%s: Units() = %d, want observations/scenario", s.Name, s.Units())
		}
	}
	if p := SuiteScale(0); p.NumObs < 1 {
		t.Error("tiny scales must keep at least one observation")
	}
}
