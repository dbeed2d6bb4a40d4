package suite_test

// Conformance tests for the real registered workloads: every workload the
// repo ships must expose the full registry contract (≥3 variants spanning
// all three program styles, resolvable reference/validate hooks), and all of
// a workload's variants must agree on the output checksum at small scale —
// the registry-level restatement of the suite's correctness test.

import (
	"fmt"
	"strings"
	"testing"

	_ "repro/internal/c3i/hypothesis" // register the five shipped workloads
	_ "repro/internal/c3i/plottrack"
	_ "repro/internal/c3i/route"
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain"
	_ "repro/internal/c3i/threat"
	"repro/internal/machine"
	"repro/internal/platforms"
)

// shipped lists the repo's registered workloads in paper order. The
// agreement tests solve each at its registered SmallScale — the same
// registry-derived preset CI's `c3idata -scale-small` uses — so outputs
// stay cheap to compute fully.
var shipped = []string{
	"threat-analysis",
	"terrain-masking",
	"route-optimization",
	"plot-track-assignment",
	"hypothesis-testing",
}

// smallScale returns a shipped workload's registered smoke-test scale.
func smallScale(t *testing.T, name string) float64 {
	t.Helper()
	w, err := suite.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.SmallScale <= 0 {
		t.Fatalf("%s: SmallScale %g, want positive", name, w.SmallScale)
	}
	return w.SmallScale
}

func TestShippedWorkloadsConform(t *testing.T) {
	if len(shipped) != 5 {
		t.Fatalf("%d shipped workloads listed, want 5", len(shipped))
	}
	for _, name := range shipped {
		w, err := suite.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if len(w.Variants) < 3 {
			t.Errorf("%s: %d variants, want ≥ 3", name, len(w.Variants))
		}
		styles := map[suite.Style]bool{}
		for _, s := range w.Styles() {
			styles[s] = true
		}
		for _, s := range []suite.Style{suite.Sequential, suite.Coarse, suite.Fine} {
			if !styles[s] {
				t.Errorf("%s: no %s-style variant", name, s)
			}
		}
		if w.Reference == "" {
			t.Errorf("%s: no reference variant", name)
		} else if _, err := w.Variant(w.Reference); err != nil {
			t.Errorf("%s: reference: %v", name, err)
		}
		if len(w.ValidateVariants) == 0 {
			t.Errorf("%s: no validate variants", name)
		}
		if w.Key == "" || w.FileTag == "" || w.PaperUnits <= 0 ||
			w.DefaultScale <= 0 || w.DataScale <= 0 || w.SmallScale <= 0 {
			t.Errorf("%s: incomplete metadata: %+v", name, w)
		}
	}
	// All() must list the shipped workloads in paper order (this test
	// binary registers extra mechanics-test workloads; only relative order
	// of the shipped four matters).
	pos := map[string]int{}
	for i, w := range suite.All() {
		pos[w.Name] = i
	}
	for i := 1; i < len(shipped); i++ {
		a, b := shipped[i-1], shipped[i]
		if _, ok := pos[a]; !ok {
			t.Fatalf("All() missing %s", a)
		}
		if pos[a] >= pos[b] {
			t.Errorf("All() lists %s (index %d) after %s (index %d)", a, pos[a], b, pos[b])
		}
	}
}

// solveOn runs one variant over a scenario on a platform at its full
// processor count and returns the output.
func solveOn(t *testing.T, plat platforms.Spec, v *suite.Variant, sc suite.Scenario, p suite.Params) suite.Output {
	t.Helper()
	var out suite.Output
	if _, err := plat.New(plat.MaxProcs).Run("conformance", func(th *machine.Thread) {
		out = v.Exec(th, sc, p)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVariantChecksumsAgree runs every variant on every platform, each at its
// MaxProcs, and holds all of a workload's validated checksums to the first
// one: a variant's output must not depend on the machine that runs it.
func TestVariantChecksumsAgree(t *testing.T) {
	for _, name := range shipped {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := suite.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			scs := w.Generate(smallScale(t, name))
			if len(scs) == 0 {
				t.Fatal("Generate returned no scenarios")
			}
			sc := scs[0]
			sc.Warm()
			var golden uint64
			var goldenOf string
			for _, plat := range platforms.All() {
				for _, v := range w.Variants {
					at := fmt.Sprintf("%s/%s on %s p%d", name, v.Name, plat.Key, plat.MaxProcs)
					out := solveOn(t, plat, v, sc, suite.Params{suite.ValidateParam: 1})
					switch {
					case out.Checksum == 0:
						t.Errorf("%s: validate run produced no checksum", at)
					case golden == 0:
						golden, goldenOf = out.Checksum, at
					case out.Checksum != golden:
						t.Errorf("%s: checksum %016x != %s's %016x", at, out.Checksum, goldenOf, golden)
					}
				}
			}
		})
	}
}

func TestVariantDefaultsAreComplete(t *testing.T) {
	// Exec must hand Run a fully-populated param set: running every shipped
	// variant with nil params must not panic (zero workers/chunks would).
	for _, name := range shipped {
		w, err := suite.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		scs := w.Generate(smallScale(t, name))
		sc := scs[0]
		sc.Warm()
		alpha, err := platforms.Get("alpha")
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range w.Variants {
			if _, err := alpha.New(1).Run("defaults", func(th *machine.Thread) {
				v.Exec(th, sc, nil)
			}); err != nil {
				t.Errorf("%s/%s with default params: %v", name, v.Name, err)
			}
		}
	}
}

// pointShape reads a grid point the way run.GridSpecs does, by axis name:
// the scale axis gives the scale (0 when the grid has none) and every axis
// but scale and net is an integer param. The net axis only rescales the
// machine model's time, so it is no part of the problem shape.
func pointShape(pt suite.Point) (scale float64, params suite.Params) {
	params = suite.Params{}
	for name, v := range pt {
		switch name {
		case "scale":
			scale = v
		case "net":
		default:
			params[name] = int(v)
		}
	}
	return scale, params
}

// solveAt runs one variant over the first scenario of a workload at a grid
// point's problem shape in validate mode and returns the checksum.
func solveAt(t *testing.T, w *suite.Workload, v *suite.Variant, pt suite.Point) uint64 {
	t.Helper()
	scale, params := pointShape(pt)
	if scale == 0 {
		scale = w.SmallScale
	}
	scs := w.Generate(scale)
	if len(scs) == 0 {
		t.Fatalf("%s: Generate(%g) returned no scenarios", w.Name, scale)
	}
	sc := scs[0]
	sc.Warm()
	alpha, err := platforms.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	out := solveOn(t, alpha, v, sc, suite.Params{suite.ValidateParam: 1}.Merged(params))
	if out.Checksum == 0 {
		t.Fatalf("%s/%s at scale %g params %s: validate run produced no checksum",
			w.Name, v.Name, scale, params.String())
	}
	return out.Checksum
}

// semanticKey collapses grid points that cannot change a workload's
// output: points differing only in network maturity share one conformance
// obligation.
func semanticKey(pt suite.Point) string {
	scale, params := pointShape(pt)
	return fmt.Sprintf("s%g|%s", scale, params.String())
}

// TestVariantsAgreeAtEveryGridPoint is the grid-wide conformance contract:
// for every shipped workload that declares a scenario grid, all of its
// program styles must produce the same output checksum at every declared
// grid point — not just at the paper defaults.
func TestVariantsAgreeAtEveryGridPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid sweep skipped in -short mode")
	}
	gridded := 0
	for _, name := range shipped {
		w, err := suite.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Grid == nil {
			continue
		}
		gridded++
		t.Run(name, func(t *testing.T) {
			seen := map[string]bool{}
			for _, pt := range w.Grid.Points() {
				if k := semanticKey(pt); seen[k] {
					continue
				} else {
					seen[k] = true
				}
				var golden uint64
				for i, v := range w.Variants {
					sum := solveAt(t, w, v, pt)
					if i == 0 {
						golden = sum
						continue
					}
					if sum != golden {
						t.Errorf("%s at %s: checksum %016x != %s's %016x",
							v.Name, w.Grid.PointLabel(pt), sum, w.Variants[0].Name, golden)
					}
				}
			}
			if len(seen) < 2 {
				t.Errorf("grid collapses to %d distinct problem shapes — not a grid", len(seen))
			}
		})
	}
	if gridded == 0 {
		t.Fatal("no shipped workload declares a scenario grid")
	}
}

// TestHypothesisGridPropertySquare is the always-on property check over a
// 2×2 sub-grid of the hypothesis-testing grid: at every point the three
// styles agree, and across points the checksums differ — the grid axes
// actually change the problem, and agreement at one point is not agreement
// everywhere.
func TestHypothesisGridPropertySquare(t *testing.T) {
	w, err := suite.Lookup("hypothesis-testing")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.Grid.Sub(map[string][]float64{
		"scale": {0.05},
		"gate":  {24, 48},
		"prune": {0, 500},
		"net":   {0},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := sub.Points()
	if len(pts) != 4 {
		t.Fatalf("2×2 sub-grid has %d points", len(pts))
	}
	sums := map[uint64]string{}
	for _, pt := range pts {
		var golden uint64
		for i, v := range w.Variants {
			sum := solveAt(t, w, v, pt)
			if i == 0 {
				golden = sum
				continue
			}
			if sum != golden {
				t.Errorf("%s at %s: checksum %016x != %s's %016x",
					v.Name, sub.PointLabel(pt), sum, w.Variants[0].Name, golden)
			}
		}
		if prev, dup := sums[golden]; dup {
			t.Errorf("points %s and %s share checksum %016x — an axis is inert",
				prev, sub.PointLabel(pt), golden)
		}
		sums[golden] = sub.PointLabel(pt)
	}
}

// TestHypothesisParamErrors exercises the registry-level error paths of the
// fifth workload: every variant must reject an invalid gating window or
// prune threshold with a diagnostic panic rather than silently computing a
// wrong (checksum-breaking) score vector.
func TestHypothesisParamErrors(t *testing.T) {
	w, err := suite.Lookup("hypothesis-testing")
	if err != nil {
		t.Fatal(err)
	}
	scs := w.Generate(smallScale(t, w.Name))
	sc := scs[0]
	sc.Warm()
	alpha, err := platforms.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		label string
		p     suite.Params
		want  string
	}{
		{"zero gate", suite.Params{"gate": 0}, "gating window"},
		{"negative gate", suite.Params{"gate": -3}, "gating window"},
		{"negative prune", suite.Params{"prune": -1}, "prune threshold"},
		{"prune over 1000", suite.Params{"prune": 1001}, "prune threshold"},
	}
	for _, v := range w.Variants {
		for _, tc := range bad {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s/%s: no panic", v.Name, tc.label)
						return
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
						t.Errorf("%s/%s: panic %q does not mention %q", v.Name, tc.label, msg, tc.want)
					}
				}()
				alpha.New(1).Run("bad-params", func(th *machine.Thread) {
					v.Exec(th, sc, tc.p)
				})
			}()
		}
	}
}

// TestPlotTrackParamErrors exercises the registry-level error paths of the
// newest workload: every variant must reject an invalid gating window,
// auction epsilon, or convergence guard with a diagnostic panic rather than
// silently computing a wrong (checksum-breaking) assignment.
func TestPlotTrackParamErrors(t *testing.T) {
	w, err := suite.Lookup("plot-track-assignment")
	if err != nil {
		t.Fatal(err)
	}
	scs := w.Generate(smallScale(t, w.Name))
	sc := scs[0]
	sc.Warm()
	alpha, err := platforms.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		label string
		p     suite.Params
		want  string
	}{
		{"zero gate", suite.Params{"gate": 0}, "gate"},
		{"negative gate", suite.Params{"gate": -3}, "gate"},
		{"zero epsilon", suite.Params{"epsilon": 0}, "epsilon"},
		{"negative rounds", suite.Params{"rounds": -1}, "rounds"},
	}
	for _, v := range w.Variants {
		for _, tc := range bad {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s/%s: no panic", v.Name, tc.label)
						return
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
						t.Errorf("%s/%s: panic %q does not mention %q", v.Name, tc.label, msg, tc.want)
					}
				}()
				alpha.New(1).Run("bad-params", func(th *machine.Thread) {
					v.Exec(th, sc, tc.p)
				})
			}()
		}
	}
}
