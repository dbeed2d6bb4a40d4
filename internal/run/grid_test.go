package run

import (
	"strings"
	"testing"

	_ "repro/internal/c3i/hypothesis" // register the gridded workloads
	_ "repro/internal/c3i/plottrack"
	"repro/internal/c3i/suite"
)

func TestGridSpecsExpandsDeclaredGrid(t *testing.T) {
	pts, err := GridSpecs("hypothesis-testing", "", "tera", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := suite.Lookup("hypothesis-testing")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != w.Grid.NumPoints() {
		t.Fatalf("%d grid specs for %d declared points", len(pts), w.Grid.NumPoints())
	}
	keys := map[string]bool{}
	labels := map[string]bool{}
	for i, gp := range pts {
		if gp.Spec.Workload != "hypothesis-testing" {
			t.Fatalf("point %d: workload %q", i, gp.Spec.Workload)
		}
		// Empty variant selects the workload's reference.
		if gp.Spec.Variant != w.Reference {
			t.Errorf("point %d: variant %q, want reference %q", i, gp.Spec.Variant, w.Reference)
		}
		// Grid specs always validate: every sweep record carries the
		// checksum the conformance contract is stated over.
		if !gp.Spec.Validate {
			t.Errorf("point %d (%s): Validate not set", i, gp.Label)
		}
		// The axes landed where their names say: scale on Spec.Scale, params
		// in Spec.Params, net on Spec.NetLatencyMult.
		if gp.Spec.Scale != gp.Point["scale"] {
			t.Errorf("point %s: Scale %g != axis %g", gp.Label, gp.Spec.Scale, gp.Point["scale"])
		}
		if got := gp.Spec.Params["gate"]; got != int(gp.Point["gate"]) {
			t.Errorf("point %s: gate param %d != axis %g", gp.Label, got, gp.Point["gate"])
		}
		if got := gp.Spec.Params["prune"]; got != int(gp.Point["prune"]) {
			t.Errorf("point %s: prune param %d != axis %g", gp.Label, got, gp.Point["prune"])
		}
		if k := gp.Spec.Key(); keys[k] {
			t.Errorf("duplicate spec key %s", k)
		} else {
			keys[k] = true
		}
		if labels[gp.Label] {
			t.Errorf("duplicate point label %s", gp.Label)
		} else {
			labels[gp.Label] = true
		}
	}
	// Canonical order: row-major over the declared axes, first axis slowest —
	// the first point is every axis at its first declared value, the last at
	// its last.
	first, last := pts[0], pts[len(pts)-1]
	for _, a := range w.Grid.Axes {
		if first.Point[a.Name] != a.Values[0] {
			t.Errorf("first point %s: axis %s = %g, want %g", first.Label, a.Name, first.Point[a.Name], a.Values[0])
		}
		if lv := a.Values[len(a.Values)-1]; last.Point[a.Name] != lv {
			t.Errorf("last point %s: axis %s = %g, want %g", last.Label, a.Name, last.Point[a.Name], lv)
		}
	}
}

func TestGridSpecsNetAxis(t *testing.T) {
	pts, err := GridSpecs("hypothesis-testing", "fine", "tera", 2,
		map[string][]float64{"scale": {0.05}, "gate": {32}, "prune": {250}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want the 3 net values", len(pts))
	}
	// net=0 is the calibrated default (no override); nonzero values land on
	// NetLatencyMult with the bandwidth side filled from the calibration.
	if pts[0].Spec.NetLatencyMult != 0 || pts[0].Spec.NetBandwidthEff != 0 {
		t.Errorf("net=0 point carries overrides: %+v", pts[0].Spec)
	}
	if pts[1].Spec.NetLatencyMult != 1 || pts[2].Spec.NetLatencyMult != 2.5 {
		t.Errorf("net override points: %g, %g", pts[1].Spec.NetLatencyMult, pts[2].Spec.NetLatencyMult)
	}
	for _, gp := range pts[1:] {
		if gp.Spec.NetBandwidthEff == 0 {
			t.Errorf("point %s: bandwidth side not filled from calibration", gp.Label)
		}
	}
	// A nonzero net value is tera-only; sweeping the net axis on another
	// platform must fail loudly, not silently drop the axis.
	if _, err := GridSpecs("hypothesis-testing", "fine", "alpha", 1, nil); err == nil ||
		!strings.Contains(err.Error(), "tera") {
		t.Errorf("net axis on alpha: err = %v", err)
	}
	// Restricted to the calibrated point it runs anywhere.
	if _, err := GridSpecs("hypothesis-testing", "fine", "alpha", 1,
		map[string][]float64{"net": {0}}); err != nil {
		t.Errorf("net=0 on alpha: %v", err)
	}
}

func TestGridSpecsErrors(t *testing.T) {
	if _, err := GridSpecs("no-such-workload", "", "tera", 2, nil); err == nil {
		t.Error("unknown workload did not fail")
	}
	// A workload without a declared grid cannot be swept.
	if _, err := GridSpecs("threat-analysis", "", "tera", 2, nil); err == nil ||
		!strings.Contains(err.Error(), "declares no scenario grid") {
		t.Errorf("gridless workload: err = %v", err)
	}
	if _, err := GridSpecs("hypothesis-testing", "", "tera", 2,
		map[string][]float64{"gate": {17}}); err == nil ||
		!strings.Contains(err.Error(), "no declared value") {
		t.Errorf("undeclared restriction: err = %v", err)
	}
	if _, err := GridSpecs("hypothesis-testing", "no-such-variant", "tera", 2, nil); err == nil {
		t.Error("unknown variant did not fail")
	}
}

func TestGridSpecsPlotTrack(t *testing.T) {
	pts, err := GridSpecs("plot-track-assignment", "fine", "tera", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points, want 3 scales × 2 gates", len(pts))
	}
	for _, gp := range pts {
		if gp.Spec.Variant != "fine" {
			t.Errorf("point %s: variant %q", gp.Label, gp.Spec.Variant)
		}
		// Normalization spelled out the fine variant's other tunables.
		if gp.Spec.Params["threads"] == 0 {
			t.Errorf("point %s: normalized params missing variant defaults: %v", gp.Label, gp.Spec.Params)
		}
	}
}
