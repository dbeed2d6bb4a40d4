package suite

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// testScenario is the empty scenario the mechanics-test descriptors decode
// into.
type testScenario struct{}

func (testScenario) ScenarioName() string { return "test-1" }
func (testScenario) Units() int           { return 1 }
func (testScenario) Warm()                {}
func (testScenario) Validate() error      { return nil }

// testWorkload builds a minimal valid descriptor for registry-mechanics
// tests (names are prefixed so they cannot collide with real workloads).
func testWorkload(name, key string) *Workload {
	run := func(t *machine.Thread, sc Scenario, p Params) Output { return Output{Checksum: 1} }
	return &Workload{
		Name: name, Key: key, FileTag: name, Title: name,
		PaperUnits: 10, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Reference:        "sequential",
		ValidateVariants: []string{"sequential"},
		Generate:         func(scale float64) []Scenario { return nil },
		New:              func() Scenario { return testScenario{} },
		Variants: []*Variant{
			{Name: "sequential", Style: Sequential, Run: run},
			{Name: "coarse", Style: Coarse, Defaults: Params{"workers": 4}, Run: run},
			{Name: "fine", Style: Fine, Run: run},
		},
	}
}

func TestRegisterRejectsIncompleteDescriptors(t *testing.T) {
	run := func(t *machine.Thread, sc Scenario, p Params) Output { return Output{} }
	cases := []struct {
		label  string
		mutate func(w *Workload)
		want   string
	}{
		{"missing name", func(w *Workload) { w.Name = "" }, "needs Name"},
		{"missing file tag", func(w *Workload) { w.FileTag = "" }, "needs Name"},
		{"zero paper units", func(w *Workload) { w.PaperUnits = 0 }, "positive PaperUnits"},
		{"zero default scale", func(w *Workload) { w.DefaultScale = 0 }, "positive DefaultScale"},
		{"zero data scale", func(w *Workload) { w.DataScale = 0 }, "positive DefaultScale"},
		{"zero small scale", func(w *Workload) { w.SmallScale = 0 }, "SmallScale"},
		{"nil generate", func(w *Workload) { w.Generate = nil }, "Generate hook"},
		{"nil new", func(w *Workload) { w.New = nil }, "New hook"},
		{"no variants", func(w *Workload) { w.Variants = nil }, "no variants"},
		{"unnamed variant", func(w *Workload) {
			w.Variants = append(w.Variants, &Variant{Style: Fine, Run: run})
		}, "unnamed variant"},
		{"bad style", func(w *Workload) {
			w.Variants = append(w.Variants, &Variant{Name: "x", Style: "medium", Run: run})
		}, "invalid style"},
		{"nil run", func(w *Workload) {
			w.Variants = append(w.Variants, &Variant{Name: "x", Style: Fine})
		}, "no Run hook"},
		{"duplicate variant", func(w *Workload) {
			w.Variants = append(w.Variants, &Variant{Name: "fine", Style: Fine, Run: run})
		}, "twice"},
		{"bad reference", func(w *Workload) { w.Reference = "nope" }, "reference variant"},
		{"bad validate list", func(w *Workload) { w.ValidateVariants = []string{"nope"} }, "validate variant"},
	}
	for _, tc := range cases {
		w := testWorkload("test-invalid", "t-inv")
		tc.mutate(w)
		err := Register(w)
		if err == nil {
			t.Errorf("%s: Register did not fail", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
		// Rejected descriptors must not be registered.
		if _, err := Lookup(w.Name); err == nil {
			t.Errorf("%s: invalid workload was registered anyway", tc.label)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register(testWorkload("test-dup", "t-dup")); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := Register(testWorkload("test-dup", "t-dup2")); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name: err = %v", err)
	}
	if err := Register(testWorkload("test-dup2", "t-dup")); err == nil ||
		!strings.Contains(err.Error(), "already taken") {
		t.Errorf("duplicate key: err = %v", err)
	}
}

func TestLookupAndVariantUnknown(t *testing.T) {
	if _, err := Lookup("no-such-workload"); err == nil {
		t.Error("Lookup(no-such-workload) did not fail")
	}
	w := testWorkload("test-lookup", "t-lkp")
	MustRegister(w)
	got, err := Lookup("test-lookup")
	if err != nil || got != w {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := got.Variant("sequential"); err != nil {
		t.Errorf("Variant(sequential): %v", err)
	}
	if _, err := got.Variant("no-such-variant"); err == nil {
		t.Error("Variant(no-such-variant) did not fail")
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Order > b.Order || (a.Order == b.Order && a.Name > b.Name) {
			t.Errorf("All() out of order: %s (%d) before %s (%d)", a.Name, a.Order, b.Name, b.Order)
		}
	}
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() len %d != All() len %d", len(names), len(all))
	}
	for i := range all {
		if names[i] != all[i].Name {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], all[i].Name)
		}
	}
}

func TestParamsMergedAndString(t *testing.T) {
	defaults := Params{"workers": 4, "blocks": 10}
	p := Params{"workers": 16}.Merged(defaults)
	if p["workers"] != 16 || p["blocks"] != 10 {
		t.Errorf("Merged = %v", p)
	}
	if defaults["workers"] != 4 {
		t.Error("Merged modified the defaults")
	}
	if got := p.String(); got != "blocks=10,workers=16" {
		t.Errorf("String() = %q, want canonical sorted form", got)
	}
	if got := (Params{}).String(); got != "-" {
		t.Errorf("empty String() = %q, want -", got)
	}
	if p := Params(nil).Merged(nil); p == nil || len(p) != 0 {
		t.Errorf("nil Merged nil = %v, want empty non-nil", p)
	}
}

func TestStylesAndNorm(t *testing.T) {
	w := testWorkload("test-styles", "t-sty")
	styles := w.Styles()
	if len(styles) != 3 {
		t.Fatalf("Styles() = %v, want all three", styles)
	}
	for _, s := range styles {
		if !s.Valid() {
			t.Errorf("style %q invalid", s)
		}
	}
	if Style("medium").Valid() {
		t.Error("invalid style accepted")
	}
	if n := w.Norm(nil); n != 1 {
		t.Errorf("Norm(nil) = %g, want 1", n)
	}
}
