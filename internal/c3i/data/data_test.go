package data

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/c3i/hypothesis"
	"repro/internal/c3i/plottrack"
	"repro/internal/c3i/route"
	"repro/internal/c3i/suite"
	"repro/internal/c3i/terrain"
	"repro/internal/c3i/threat"
	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// badCase is one mutation of a valid scenario that its Validate must reject
// with an error mentioning want.
type badCase struct {
	label  string
	mutate func(sc suite.Scenario)
	want   string
}

// mut adapts a mutation of a concrete scenario type to a badCase mutation.
func mut[S any](f func(*S)) func(suite.Scenario) {
	return func(sc suite.Scenario) { f(any(sc).(*S)) }
}

// hugeClimb launches the first threat at 1e12 m/s, a flight of 816 G steps
// at the default time step.
func hugeClimb(s *threat.Scenario) { s.Threats[0].Vel.Z = 1e12 }

// fixtures holds, for every shipped workload, a small valid scenario (a
// round-trip case and a fuzz seed) and mutations its Validate must reject.
var fixtures = map[string]struct {
	small func() suite.Scenario
	bad   []badCase
}{
	"threat-analysis": {
		small: func() suite.Scenario {
			return threat.GenScenario("small", threat.GenParams{NumThreats: 1, NumWeapons: 1, Seed: 1})
		},
		bad: []badCase{
			{"zero time step", mut(func(s *threat.Scenario) { s.DT = 0 }), "time step"},
			{"negative time step", mut(func(s *threat.Scenario) { s.DT = -0.25 }), "time step"},
			{"infinite time step", mut(func(s *threat.Scenario) { s.DT = math.Inf(1) }), "time step"},
			{"816 G pair steps", mut(hugeClimb), "pair steps"},
			{"NaN detection", mut(func(s *threat.Scenario) { s.Threats[0].Detect = math.NaN() }), "non-finite"},
			{"+Inf launch", mut(func(s *threat.Scenario) { s.Threats[0].Launch.X = math.Inf(1) }), "non-finite"},
			{"-Inf velocity", mut(func(s *threat.Scenario) { s.Threats[0].Vel.Y = math.Inf(-1) }), "non-finite"},
			{"NaN weapon speed", mut(func(s *threat.Scenario) { s.Weapons[0].Speed = math.NaN() }), "non-finite"},
			{"+Inf weapon range", mut(func(s *threat.Scenario) { s.Weapons[0].MaxRange = math.Inf(1) }), "non-finite"},
			{"-Inf weapon readiness", mut(func(s *threat.Scenario) { s.Weapons[0].Ready = math.Inf(-1) }), "non-finite"},
			{"detection past any int step", mut(func(s *threat.Scenario) { s.Threats[0].Detect = 1e300 }), "beyond"},
		},
	},
	"terrain-masking": {
		small: func() suite.Scenario {
			return terrain.GenScenario("small", terrain.GenParams{Side: 5, NumThreats: 2, Radius: 1, Seed: 9})
		},
		bad: []badCase{
			{"no grid", mut(func(s *terrain.Scenario) { s.Grid = nil }), "no elevation grid"},
			{"short elevation", mut(func(s *terrain.Scenario) { s.Grid.Elev = s.Grid.Elev[:10] }), "elevation length"},
			{"wrapping dimensions", mut(func(s *terrain.Scenario) {
				s.Grid = &terrain.Grid{W: 1 << 32, H: 1 << 32}
			}), "elevation length"},
			{"zero radius", mut(func(s *terrain.Scenario) { s.Threats[0].R = 0 }), "radius 0"},
			{"site near the edge", mut(func(s *terrain.Scenario) {
				s.Grid = terrain.GenGrid(64, 64, 1)
				s.Threats[0].X, s.Threats[0].Y, s.Threats[0].R = 2, 2, 8
			}), "reaches outside"},
			{"repeated site ID", mut(func(s *terrain.Scenario) { s.Threats[1].ID = s.Threats[0].ID }), "repeats"},
		},
	},
	"route-optimization": {
		small: func() suite.Scenario {
			return route.GenScenario("small", route.GenParams{Side: 3, NumThreats: 1, Radius: 1, NumQueries: 1, Seed: 3})
		},
		bad: []badCase{
			{"short risk", mut(func(s *route.Scenario) { s.Risk = s.Risk[:1] }), "risk length"},
			{"wrapping dimensions", mut(func(s *route.Scenario) { s.W, s.H, s.Risk = 1<<32, 1<<32, nil }), "risk length"},
			{"negative risk", mut(func(s *route.Scenario) { s.Risk[5] = -1 }), "negative risk"},
			{"query off the grid", mut(func(s *route.Scenario) { s.Queries[0].GX = s.W }), "outside"},
		},
	},
	"plot-track-assignment": {
		small: func() suite.Scenario {
			return plottrack.GenScenario("small", plottrack.GenParams{Field: 256, NumTracks: 2, NumPlots: 2, Frames: 2, Seed: 3})
		},
		bad: []badCase{
			{"zero field", mut(func(s *plottrack.Scenario) { s.Field = 0 }), "field size"},
			{"track outside", mut(func(s *plottrack.Scenario) { s.Tracks[0].X = s.Field }), "outside"},
			{"bad quality", mut(func(s *plottrack.Scenario) { s.Tracks[0].Quality = 99 }), "quality"},
			{"plot outside", mut(func(s *plottrack.Scenario) { s.Frames[1][0].Y = -1 }), "outside"},
			{"ragged frames", mut(func(s *plottrack.Scenario) { s.Frames[1] = s.Frames[1][1:] }), "one size"},
		},
	},
	"hypothesis-testing": {
		small: func() suite.Scenario {
			return hypothesis.GenScenario("small", hypothesis.GenParams{Field: 256, NumHyps: 2, NumObs: 3, Steps: 12, Seed: 4})
		},
		bad: []badCase{
			{"zero steps", mut(func(s *hypothesis.Scenario) { s.Steps = 0 }), "want positive"},
			{"hypothesis outside", mut(func(s *hypothesis.Scenario) { s.Hyps[0].X = -1 }), "outside"},
			{"fast hypothesis", mut(func(s *hypothesis.Scenario) { s.Hyps[0].VY = hypothesis.MaxSpeed + 1 }), "velocity"},
			{"bad prior", mut(func(s *hypothesis.Scenario) { s.Hyps[0].Prior = hypothesis.MaxPrior + 1 }), "prior"},
			{"late observation", mut(func(s *hypothesis.Scenario) { s.Obs[len(s.Obs)-1].T = s.Steps }), "outside 0.."},
			{"observation outside", mut(func(s *hypothesis.Scenario) { s.Obs[0].X = s.Field }), "outside"},
			{"unordered observations", mut(func(s *hypothesis.Scenario) {
				s.Obs[0], s.Obs[len(s.Obs)-1] = s.Obs[len(s.Obs)-1], s.Obs[0]
			}), "time-ordered"},
		},
	},
}

// TestScenarioRoundTrip covers every registered workload's scenario files:
// generated scenarios validate, scenarios round-trip unchanged, and every
// fixture mutation is rejected on load.
func TestScenarioRoundTrip(t *testing.T) {
	for _, w := range suite.All() {
		t.Run(w.Name, func(t *testing.T) {
			fx, ok := fixtures[w.Name]
			if !ok || len(fx.bad) == 0 {
				t.Fatalf("no fixture with invalid cases for %s", w.Name)
			}
			scs := w.Generate(w.SmallScale)
			for _, sc := range scs {
				if err := sc.Validate(); err != nil {
					t.Errorf("generated %s: %v", sc.ScenarioName(), err)
				}
			}
			path := filepath.Join(t.TempDir(), "s.c3i")
			for _, sc := range []suite.Scenario{scs[0], fx.small()} {
				if err := Save(path, w, sc); err != nil {
					t.Fatal(err)
				}
				got, err := Load(path, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, sc) {
					t.Errorf("%s differs after round trip", sc.ScenarioName())
				}
			}
			for _, bc := range fx.bad {
				sc := fx.small()
				bc.mutate(sc)
				if err := Save(path, w, sc); err != nil {
					t.Fatal(err)
				}
				if _, err := Load(path, w); err == nil {
					t.Errorf("%s: accepted", bc.label)
				} else if !strings.Contains(err.Error(), bc.want) {
					t.Errorf("%s: error %q does not mention %q", bc.label, err, bc.want)
				}
			}
		})
	}
}

// TestLoadedScenarioSolvesIdentically checks that a scenario read back from
// its file produces exactly the benchmark output of the generated one.
func TestLoadedScenarioSolvesIdentically(t *testing.T) {
	solve := func(w *suite.Workload, sc suite.Scenario) uint64 {
		var out suite.Output
		if _, err := smp.New(smp.AlphaStation()).Run("solve", func(th *machine.Thread) {
			out = w.MustVariant(w.Reference).Exec(th, sc, suite.Params{suite.ValidateParam: 1})
		}); err != nil {
			t.Fatal(err)
		}
		return out.Checksum
	}
	dir := t.TempDir()
	for _, w := range suite.All() {
		sc := w.Generate(w.SmallScale)[0]
		path := filepath.Join(dir, w.FileTag+".c3i")
		if err := Save(path, w, sc); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path, w)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := solve(w, sc), solve(w, loaded); want == 0 || got != want {
			t.Errorf("%s: loaded scenario solves to %016x, generated to %016x", w.Name, got, want)
		}
	}
}

// FuzzLoadScenario feeds arbitrary bytes to every registered workload's
// decoder. Loading must never panic, and a scenario that loads must encode
// to bytes that load back to the same encoding (byte equality stands in for
// scenario equality, so NaN fields compare equal).
func FuzzLoadScenario(f *testing.F) {
	for _, w := range suite.All() {
		fx, ok := fixtures[w.Name]
		if !ok {
			f.Fatalf("no fixture for %s", w.Name)
		}
		var buf bytes.Buffer
		if err := encode(&buf, w.Name, fx.small()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	huge := fixtures["threat-analysis"].small().(*threat.Scenario)
	hugeClimb(huge)
	var buf bytes.Buffer
	if err := encode(&buf, "threat-analysis", huge); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, w := range suite.All() {
			sc, err := load(bytes.NewReader(in), "input", w)
			if err != nil {
				continue
			}
			var first, second bytes.Buffer
			if err := encode(&first, w.Name, sc); err != nil {
				t.Fatalf("%s: re-encoding a loaded scenario: %v", w.Name, err)
			}
			back, err := load(bytes.NewReader(first.Bytes()), "re-encoded", w)
			if err != nil {
				t.Fatalf("%s: re-encoded scenario does not load: %v", w.Name, err)
			}
			if err := encode(&second, w.Name, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: scenario changed across a decode/encode round trip", w.Name)
			}
		}
	})
}

// mustLookup returns a registered workload.
func mustLookup(t *testing.T, name string) *suite.Workload {
	t.Helper()
	w, err := suite.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRouteVariantsMatchGoldenChecksum is the suite's correctness test for
// the Route Optimization problem: all three solver variants must reproduce
// the golden path-cost checksum recorded from the sequential reference.
func TestRouteVariantsMatchGoldenChecksum(t *testing.T) {
	s := route.GenScenario("golden", route.GenParams{Side: 48, NumThreats: 4, Radius: 8, NumQueries: 3, Seed: 3})
	solve := func(e *machine.Engine, f func(*machine.Thread) *route.Output) *route.Output {
		var out *route.Output
		if _, err := e.Run("solve", func(th *machine.Thread) { out = f(th) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := solve(smp.New(smp.AlphaStation()), func(th *machine.Thread) *route.Output {
		return route.Sequential(th, s)
	})
	goldens := []Golden{{Scenario: s.Name, Kind: "route-optimization", Checksum: route.Checksum(ref.PathCost)}}

	coarse := solve(smp.New(smp.PentiumProSMP(4)), func(th *machine.Thread) *route.Output {
		return route.Coarse(th, s, 4, 4)
	})
	fine := solve(mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *route.Output {
		return route.Fine(th, s, 32)
	})
	for name, out := range map[string]*route.Output{"coarse": coarse, "fine": fine} {
		if err := CheckGolden(goldens, s.Name, "route-optimization", route.Checksum(out.PathCost)); err != nil {
			t.Errorf("%s variant does not match golden: %v", name, err)
		}
	}
	if err := CheckGolden(goldens, s.Name, "route-optimization", route.Checksum(ref.PathCost[:1])); err == nil {
		t.Error("truncated path costs matched the golden checksum")
	}
}

func TestKindMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.c3i")
	s := threat.GenScenario("k", threat.GenParams{NumThreats: 5, NumWeapons: 2, Seed: 1})
	if err := Save(path, mustLookup(t, "threat-analysis"), s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, mustLookup(t, "terrain-masking")); err == nil {
		t.Error("loading a threat file as terrain did not fail")
	}
	// Saving a scenario under another workload's kind is refused outright.
	if err := Save(path, mustLookup(t, "terrain-masking"), s); err == nil {
		t.Error("a threat scenario saved as terrain")
	}
}

func TestGarbageRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("not a scenario"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustLookup(t, "threat-analysis")
	if _, err := Load(path, w); err == nil {
		t.Error("garbage file accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing"), w); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "badmagic")
	// Right length, wrong bytes — and long enough to hold a plausible body.
	if err := os.WriteFile(path, []byte("C3IPBX\x00 followed by junk payload bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, mustLookup(t, "threat-analysis")); err == nil {
		t.Error("bad magic accepted")
	} else if !strings.Contains(err.Error(), "not a C3IPBS scenario file") {
		t.Errorf("bad magic error %q does not name the format", err)
	}
	if _, err := LoadGolden(path); err == nil {
		t.Error("bad magic accepted for golden file")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mystery.c3i")
	if err := writeFile(path, "mystery-kind", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, w := range suite.All() {
		if _, err := Load(path, w); err == nil {
			t.Errorf("%s loader accepted a mystery-kind file", w.Name)
		} else if !strings.Contains(err.Error(), "mystery-kind") {
			t.Errorf("%s loader error %q does not name the found kind", w.Name, err)
		}
	}
}

// TestPlotScenarioRoundTrip round-trips a multi-frame Plot-Track scenario,
// larger than its fixture, and checks every track and plot survives.
func TestPlotScenarioRoundTrip(t *testing.T) {
	w := mustLookup(t, "plot-track-assignment")
	path := filepath.Join(t.TempDir(), "p1.c3i")
	s := plottrack.GenScenario("rt", plottrack.GenParams{Field: 256, NumTracks: 12, NumPlots: 14, Frames: 3, Seed: 3})
	if err := Save(path, w, s); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path, w)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.(*plottrack.Scenario)
	if got.Name != s.Name || got.Field != s.Field {
		t.Fatalf("metadata mismatch: %q field %d", got.Name, got.Field)
	}
	if len(got.Tracks) != len(s.Tracks) {
		t.Fatalf("%d tracks after round trip, want %d", len(got.Tracks), len(s.Tracks))
	}
	for i := range s.Tracks {
		if got.Tracks[i] != s.Tracks[i] {
			t.Fatalf("track %d differs after round trip", i)
		}
	}
	if len(got.Frames) != len(s.Frames) {
		t.Fatalf("%d frames after round trip, want %d", len(got.Frames), len(s.Frames))
	}
	for f := range s.Frames {
		if len(got.Frames[f]) != len(s.Frames[f]) {
			t.Fatalf("frame %d has %d plots after round trip, want %d", f, len(got.Frames[f]), len(s.Frames[f]))
		}
		for i := range s.Frames[f] {
			if got.Frames[f][i] != s.Frames[f][i] {
				t.Fatalf("frame %d plot %d differs after round trip", f, i)
			}
		}
	}
}

// TestPlotScenarioValidation writes hand-built invalid Plot-Track files,
// bypassing Save, and checks Load rejects each naming the fault.
func TestPlotScenarioValidation(t *testing.T) {
	w := mustLookup(t, "plot-track-assignment")
	dir := t.TempDir()
	cases := []struct {
		label string
		sc    *plottrack.Scenario
		want  string
	}{
		{"zero field", &plottrack.Scenario{Name: "x", Field: 0}, "field size"},
		{"track outside", &plottrack.Scenario{Name: "x", Field: 8,
			Tracks: []plottrack.Track{{ID: 0, X: 9, Y: 0}}}, "outside"},
		{"bad quality", &plottrack.Scenario{Name: "x", Field: 8,
			Tracks: []plottrack.Track{{ID: 0, X: 1, Y: 1, Quality: 99}}}, "quality"},
		{"plot outside", &plottrack.Scenario{Name: "x", Field: 8,
			Frames: [][]plottrack.Plot{{{ID: 0, X: -1, Y: 0}}}}, "outside"},
		{"ragged frames", &plottrack.Scenario{Name: "x", Field: 8,
			Frames: [][]plottrack.Plot{{{ID: 0, X: 1, Y: 1}}, {}}}, "one size"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.label+".c3i")
		if err := writeFile(path, w.Name, tc.sc); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, w); err == nil {
			t.Errorf("%s: accepted", tc.label)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
	}
}

func TestPlotVariantsMatchGoldenChecksum(t *testing.T) {
	// The suite's correctness test for the Plot-Track Assignment problem:
	// all three solver variants must reproduce the golden assignment-cost
	// checksum recorded from the sequential reference.
	s := plottrack.GenScenario("golden", plottrack.GenParams{Field: 256, NumTracks: 18, NumPlots: 20, Frames: 2, Seed: 5})
	solve := func(e *machine.Engine, f func(*machine.Thread) *plottrack.Output) *plottrack.Output {
		var out *plottrack.Output
		if _, err := e.Run("solve", func(th *machine.Thread) { out = f(th) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sum := func(costs []int64) uint64 {
		return plottrack.Checksum(costs, len(s.Frames[0]), len(s.Tracks))
	}
	ref := solve(smp.New(smp.AlphaStation()), func(th *machine.Thread) *plottrack.Output {
		return plottrack.Sequential(th, s)
	})
	goldens := []Golden{{Scenario: s.Name, Kind: "plot-track-assignment", Checksum: sum(ref.FrameCost)}}

	coarse := solve(smp.New(smp.PentiumProSMP(4)), func(th *machine.Thread) *plottrack.Output {
		return plottrack.Coarse(th, s, 4)
	})
	fine := solve(mta.New(mta.Params{Procs: 1}), func(th *machine.Thread) *plottrack.Output {
		return plottrack.Fine(th, s, 32)
	})
	for name, out := range map[string]*plottrack.Output{"coarse": coarse, "fine": fine} {
		if err := CheckGolden(goldens, s.Name, "plot-track-assignment", sum(out.FrameCost)); err != nil {
			t.Errorf("%s variant does not match golden: %v", name, err)
		}
	}
	if err := CheckGolden(goldens, s.Name, "plot-track-assignment", sum(ref.FrameCost[:1])); err == nil {
		t.Error("truncated frame costs matched the golden checksum")
	}
}

// TestVersionMismatchRejected hand-assembles files one format version
// either side of the current one (version 4 is the last format before
// scenarios were encoded directly) around a valid payload.
func TestVersionMismatchRejected(t *testing.T) {
	w := mustLookup(t, "threat-analysis")
	sc := threat.GenScenario("v", threat.GenParams{NumThreats: 4, NumWeapons: 2, Seed: 2})
	for _, v := range []int{version - 1, version + 1} {
		path := filepath.Join(t.TempDir(), "v.c3i")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(f)
		if _, err := bw.WriteString(magic); err != nil {
			t.Fatal(err)
		}
		enc := gob.NewEncoder(bw)
		if err := enc.Encode(header{Kind: w.Name, Version: v}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(sc); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, w); err == nil {
			t.Errorf("format version %d accepted", v)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d error %q does not mention the version", v, err)
		}
	}
}

func TestGoldenRoundTripAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.c3i")
	gs := []Golden{
		{Scenario: "scenario-1", Kind: "threat-analysis", Checksum: 0xdeadbeef},
		{Scenario: "scenario-1", Kind: "terrain-masking", Checksum: 0x1234},
	}
	if err := SaveGolden(path, gs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d records", len(loaded))
	}
	if err := CheckGolden(loaded, "scenario-1", "threat-analysis", 0xdeadbeef); err != nil {
		t.Errorf("valid checksum rejected: %v", err)
	}
	if err := CheckGolden(loaded, "scenario-1", "threat-analysis", 0xbad); err == nil {
		t.Error("wrong checksum accepted")
	}
	if err := CheckGolden(loaded, "scenario-9", "threat-analysis", 1); err == nil {
		t.Error("missing record accepted")
	}
}
