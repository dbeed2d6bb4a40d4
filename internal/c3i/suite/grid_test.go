package suite

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// gridWorkload builds a minimal valid descriptor with a declared grid: a
// scale axis, an integer param axis present in every variant's defaults,
// and a net axis.
func gridWorkload(name, key string) *Workload {
	run := func(t *machine.Thread, sc Scenario, p Params) Output { return Output{Checksum: 1} }
	shared := Params{"gate": 20}
	return &Workload{
		Name: name, Key: key, FileTag: name, Title: name,
		PaperUnits: 10, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential"},
		Generate:         func(scale float64) []Scenario { return nil },
		New:              func() Scenario { return testScenario{} },
		Grid: &Grid{Axes: []Axis{
			{Name: "scale", Values: []float64{0.1, 0.5, 1}, Default: 1},
			{Name: "gate", Values: []float64{10, 20, 40}, Default: 20},
			{Name: "net", Values: []float64{0, 1.4}, Default: 0},
		}},
		Variants: []*Variant{
			{Name: "sequential", Style: Sequential, Defaults: shared, Run: run},
			{Name: "coarse", Style: Coarse, Defaults: shared.Merged(Params{"workers": 4}), Run: run},
			{Name: "fine", Style: Fine, Defaults: shared.Merged(Params{"threads": 8}), Run: run},
		},
	}
}

func TestGridPointsRowMajor(t *testing.T) {
	g := &Grid{Axes: []Axis{
		{Name: "a", Values: []float64{1, 2}, Default: 1},
		{Name: "b", Values: []float64{10, 20}, Default: 10},
	}}
	if n := g.NumPoints(); n != 4 {
		t.Fatalf("NumPoints = %d, want 4", n)
	}
	pts := g.Points()
	want := []Point{
		{"a": 1, "b": 10}, {"a": 1, "b": 20},
		{"a": 2, "b": 10}, {"a": 2, "b": 20},
	}
	if len(pts) != len(want) {
		t.Fatalf("Points len %d, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		for k, v := range want[i] {
			if p[k] != v {
				t.Errorf("point %d: %s = %g, want %g (row-major, first axis slowest)", i, k, p[k], v)
			}
		}
	}
}

func TestGridDefaultPointAndLabel(t *testing.T) {
	w := gridWorkload("test-grid-label", "t-glb")
	g := w.Grid
	if got := g.PointLabel(Point{"scale": 1, "gate": 20, "net": 0}); got != "scale=1,gate=20,net=0" {
		t.Errorf("PointLabel(default) = %q", got)
	}
	// Omitted axes render their defaults, so equal points label equally.
	if got := g.PointLabel(Point{"gate": 40}); got != "scale=1,gate=40,net=0" {
		t.Errorf("PointLabel(partial) = %q", got)
	}
}

func TestGridSub(t *testing.T) {
	g := gridWorkload("test-grid-sub", "t-gsb").Grid
	sub, err := g.Sub(map[string][]float64{"gate": {40, 10}, "net": {0}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumPoints() != 3*2*1 {
		t.Errorf("sub NumPoints = %d, want 6", sub.NumPoints())
	}
	ax, err := sub.Axis("gate")
	if err != nil {
		t.Fatal(err)
	}
	// Declared order is kept, whatever order the restriction listed.
	if len(ax.Values) != 2 || ax.Values[0] != 10 || ax.Values[1] != 40 {
		t.Errorf("sub gate values = %v, want declared order [10 40]", ax.Values)
	}
	// The default (20) was dropped; the sub-grid re-defaults to the first
	// kept value.
	if ax.Default != 10 {
		t.Errorf("sub gate default = %g, want 10", ax.Default)
	}
	// The original grid is untouched.
	orig, _ := g.Axis("gate")
	if len(orig.Values) != 3 || orig.Default != 20 {
		t.Errorf("Sub mutated the original grid: %v default %g", orig.Values, orig.Default)
	}
	if _, err := g.Sub(map[string][]float64{"bogus": {1}}); err == nil ||
		!strings.Contains(err.Error(), "no axis") {
		t.Errorf("unknown axis: err = %v", err)
	}
	if _, err := g.Sub(map[string][]float64{"gate": {}}); err == nil ||
		!strings.Contains(err.Error(), "no values") {
		t.Errorf("empty restriction: err = %v", err)
	}
	if _, err := g.Sub(map[string][]float64{"gate": {15}}); err == nil ||
		!strings.Contains(err.Error(), "no declared value") {
		t.Errorf("undeclared value: err = %v", err)
	}
}

func TestGridRegistersAndValidates(t *testing.T) {
	// A valid grid registers.
	if err := Register(gridWorkload("test-grid-ok", "t-gok")); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	cases := []struct {
		label  string
		mutate func(w *Workload)
		want   string
	}{
		{"empty grid", func(w *Workload) { w.Grid = &Grid{} }, "empty grid"},
		{"unnamed axis", func(w *Workload) { w.Grid.Axes[1].Name = "" }, "unnamed"},
		{"unsafe name", func(w *Workload) { w.Grid.Axes[1].Name = "ga te" }, "flag-syntax safe"},
		{"duplicate axis", func(w *Workload) { w.Grid.Axes[1].Name = "scale" }, "twice"},
		{"no values", func(w *Workload) { w.Grid.Axes[1].Values = nil }, "no values"},
		{"undeclared default", func(w *Workload) { w.Grid.Axes[1].Default = 99 }, "not a declared value"},
		{"duplicate value", func(w *Workload) { w.Grid.Axes[1].Values = []float64{10, 20, 10} }, "twice"},
		{"non-positive scale", func(w *Workload) {
			w.Grid.Axes[0].Values = []float64{0, 1}
			w.Grid.Axes[0].Default = 1
		}, "positive"},
		{"negative net", func(w *Workload) {
			w.Grid.Axes[2].Values = []float64{-1, 0}
			w.Grid.Axes[2].Default = 0
		}, "≥ 0"},
		{"reserved param name", func(w *Workload) {
			w.Grid.Axes[1] = Axis{Name: ValidateParam, Values: []float64{1}, Default: 1}
		}, "reserved"},
		{"non-integer param", func(w *Workload) {
			w.Grid.Axes[1].Values = []float64{10, 20, 20.5}
		}, "not an integer"},
		{"param missing from a variant", func(w *Workload) {
			w.Grid.Axes[1] = Axis{Name: "depth", Values: []float64{2}, Default: 2}
		}, "silently ignore"},
	}
	for _, tc := range cases {
		w := gridWorkload("test-grid-bad", "t-gbad")
		tc.mutate(w)
		err := Register(w)
		if err == nil {
			t.Errorf("%s: Register did not fail", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
		if _, err := Lookup(w.Name); err == nil {
			t.Errorf("%s: invalid workload was registered anyway", tc.label)
		}
	}
}
