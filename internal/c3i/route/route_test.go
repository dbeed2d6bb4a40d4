package route

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// testParams is a small but nontrivial scenario geometry for solver tests.
var testParams = GenParams{Side: 64, NumThreats: 6, Radius: 10, NumQueries: 3, Seed: 7}

// bellmanFord is an independent reference: plain label-correcting relaxation
// with no machine, no buckets, no heap.
func bellmanFord(s *Scenario, q Query) int64 {
	dist := make([]int32, s.Cells())
	for i := range dist {
		dist[i] = inf
	}
	dist[s.Index(q.SX, q.SY)] = 0
	for changed := true; changed; {
		changed = false
		for v := 0; v < s.Cells(); v++ {
			d := dist[v]
			if d == inf {
				continue
			}
			x, y := v%s.W, v/s.W
			relax := func(nb int) {
				if nd := d + s.EdgeWeight(nb); nd < dist[nb] {
					dist[nb] = nd
					changed = true
				}
			}
			if x > 0 {
				relax(v - 1)
			}
			if x+1 < s.W {
				relax(v + 1)
			}
			if y > 0 {
				relax(v - s.W)
			}
			if y+1 < s.H {
				relax(v + s.W)
			}
		}
	}
	return int64(dist[s.Index(q.GX, q.GY)])
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
	if len(a.Risk) != len(b.Risk) || len(a.Queries) != len(b.Queries) {
		t.Fatal("sizes differ between identical generations")
	}
	for i := range a.Risk {
		if a.Risk[i] != b.Risk[i] {
			t.Fatalf("risk[%d] differs", i)
		}
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs", i)
		}
	}
	if a.MaxEdgeWeight() <= 1 {
		t.Error("risk field is flat — threats or terrain missing")
	}
}

func TestSequentialMatchesBellmanFord(t *testing.T) {
	p := GenParams{Side: 40, NumThreats: 4, Radius: 8, NumQueries: 3, Seed: 11}
	s := GenScenario("bf", p)
	out := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s)
	})
	for i, q := range s.Queries {
		want := bellmanFord(s, q)
		if out.PathCost[i] != want {
			t.Errorf("query %d: dijkstra cost %d, reference %d", i, out.PathCost[i], want)
		}
	}
}

func TestVariantsProduceIdenticalPathCosts(t *testing.T) {
	s := GenScenario("agree", testParams)
	seq := runOn(t, smp.New(smp.AlphaStation()), func(th *machine.Thread) *Output {
		return Sequential(th, s)
	})
	if len(seq.PathCost) != len(s.Queries) {
		t.Fatalf("%d costs for %d queries", len(seq.PathCost), len(s.Queries))
	}
	for i, c := range seq.PathCost {
		if c <= 0 || c >= int64(inf) {
			t.Fatalf("query %d cost %d out of range", i, c)
		}
	}
	variants := []struct {
		name  string
		build func() *machine.Engine
		solve func(*machine.Thread) *Output
	}{
		{"coarse/ppro", func() *machine.Engine { return smp.New(smp.PentiumProSMP(4)) },
			func(th *machine.Thread) *Output { return Coarse(th, s, 4, 4) }},
		{"coarse/tera", func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(th *machine.Thread) *Output { return Coarse(th, s, 16, 4) }},
		{"fine/tera", func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(th *machine.Thread) *Output { return Fine(th, s, 32) }},
		{"fine/tera2", func() *machine.Engine { return mta.New(mta.Params{Procs: 2}) },
			func(th *machine.Thread) *Output { return Fine(th, s, 64) }},
	}
	for _, v := range variants {
		out := runOn(t, v.build(), v.solve)
		if len(out.PathCost) != len(seq.PathCost) {
			t.Errorf("%s: %d costs, want %d", v.name, len(out.PathCost), len(seq.PathCost))
			continue
		}
		for i := range seq.PathCost {
			if out.PathCost[i] != seq.PathCost[i] {
				t.Errorf("%s: query %d cost %d, sequential %d", v.name, i, out.PathCost[i], seq.PathCost[i])
			}
		}
		if out.Relaxed < seq.Relaxed {
			t.Errorf("%s: relaxed %d < sequential %d — parallel variants cannot do less work",
				v.name, out.Relaxed, seq.Relaxed)
		}
	}
}

func TestCoarseRunsDeterministically(t *testing.T) {
	s := GenScenario("det", testParams)
	a := runOn(t, mta.New(mta.Params{Procs: 2}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, 4)
	})
	b := runOn(t, mta.New(mta.Params{Procs: 2}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, 4)
	})
	if a.Relaxed != b.Relaxed {
		t.Errorf("relax counts differ between identical runs: %d vs %d", a.Relaxed, b.Relaxed)
	}
	for i := range a.PathCost {
		if a.PathCost[i] != b.PathCost[i] {
			t.Errorf("query %d cost differs between identical runs", i)
		}
	}
}

func TestCoarseFrontierMemoryGrowsWithWorkers(t *testing.T) {
	s := GenScenario("mem", testParams)
	few := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 2, 4)
	})
	many := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Coarse(th, s, 16, 4)
	})
	if many.FrontierBytes <= few.FrontierBytes {
		t.Errorf("frontier bytes did not grow with workers: %d vs %d", many.FrontierBytes, few.FrontierBytes)
	}
	fine := runOn(t, mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *Output {
		return Fine(th, s, 32)
	})
	if fine.FrontierBytes >= few.FrontierBytes {
		t.Errorf("fine-grained frontier bytes %d not below coarse %d", fine.FrontierBytes, few.FrontierBytes)
	}
	if CoarseFrontierBytesFullScale(256) <= 2<<30 {
		t.Error("full-scale coarse frontier storage should exceed the MTA's 2 GB")
	}
}

func TestSuiteShapes(t *testing.T) {
	suite := Suite(0.25)
	if len(suite) != 5 {
		t.Fatalf("%d scenarios, want 5", len(suite))
	}
	for _, s := range suite {
		if s.W != DefaultSide || s.H != DefaultSide {
			t.Errorf("%s: grid %dx%d, want full size at any scale", s.Name, s.W, s.H)
		}
		if len(s.Queries) != 3 {
			t.Errorf("%s: %d queries at scale 0.25, want 3", s.Name, len(s.Queries))
		}
	}
	if p := SuiteScale(0.0); p.NumQueries < 1 {
		t.Error("tiny scales must keep at least one query")
	}
}

func TestPathCostChecksum(t *testing.T) {
	a := []int64{10, 20, 30}
	b := []int64{10, 20, 30}
	if Checksum(a) != Checksum(b) {
		t.Error("identical cost lists differ")
	}
	if Checksum(a) == Checksum([]int64{10, 30, 20}) {
		t.Error("checksum ignores query order (it must not: costs are per query)")
	}
	if Checksum(a) == Checksum(a[:2]) {
		t.Error("checksum missed a dropped cost")
	}
	if Checksum(nil) == Checksum([]int64{0}) {
		t.Error("empty vs single-zero collide")
	}
}
