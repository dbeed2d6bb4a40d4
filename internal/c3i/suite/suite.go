// Package suite is the registry that makes C3I benchmark workloads and their
// parallelization styles first-class values. Each workload (Threat Analysis,
// Terrain Masking, Route Optimization, …) registers one Workload descriptor
// — paper-scale constants, a scenario generator, serialization tags and
// validation hooks — plus a set of Variant descriptors, one per program
// style (sequential / coarse-grained / fine-grained), each with its tunable
// parameters and a Run hook against *machine.Thread.
//
// Consumers (internal/experiments, cmd/c3ibench, cmd/c3idata, the top-level
// benchmarks) drive workloads exclusively through this registry, so adding a
// workload is O(1) integration work: write the solver package, register it,
// and every experiment runner, data tool and benchmark picks it up — the
// Task Bench argument of O(workloads + runners) instead of
// O(workloads × runners) effort.
package suite

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
)

// Style is one of the paper's three program styles.
type Style string

const (
	// Sequential is the original single-threaded program (Programs 1, 3).
	Sequential Style = "sequential"
	// Coarse is the manual coarse-grained parallelization: a small crew of
	// chunk/worker threads with private buffers (Programs 2, 4).
	Coarse Style = "coarse"
	// Fine is the Tera style: abundant short-lived threads synchronizing on
	// individual words — practical only where threads are nearly free.
	Fine Style = "fine"
)

// Valid reports whether s is one of the three registered styles.
func (s Style) Valid() bool {
	return s == Sequential || s == Coarse || s == Fine
}

// ValidateParam is the reserved parameter consumers set to 1 to request a
// fully-computed, checksummed output. With it unset (0), variants may run in
// charge-only mode: identical machine charges, no semantic output (the
// timing sweeps' fast path).
const ValidateParam = "validate"

// Params are a variant's integer tunables (chunk counts, worker counts,
// ∆-stepping widths, …). The zero value is usable.
type Params map[string]int

// Merged returns defaults overlaid with p (p wins). Neither input is
// modified; the result is always non-nil.
func (p Params) Merged(defaults Params) Params {
	out := make(Params, len(defaults)+len(p))
	for k, v := range defaults {
		out[k] = v
	}
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders the params canonically (sorted, "k=v" joined with ","), so
// it is usable as a cache-key component. Empty params render as "-".
func (p Params) String() string {
	if len(p) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(p))
	for _, k := range SortedKeys(p) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, p[k]))
	}
	return strings.Join(parts, ",")
}

// Scenario is one benchmark input as the registry sees it. The concrete
// types live in the workload packages; consumers that need more than the
// name and workload-unit count go through Variant.Run.
type Scenario interface {
	// ScenarioName identifies the scenario ("scenario-3") for goldens.
	ScenarioName() string
	// Units is the scenario's workload-unit count (threats, route requests);
	// paired with Workload.PaperUnits it defines scale normalization.
	Units() int
	// Warm populates every internal memoization cache so that subsequent
	// solver runs only read the scenario — required before concurrent
	// experiment runs share one scenario. A no-op where nothing is cached.
	Warm()
	// Validate reports whether the scenario is one the solvers can run: the
	// range checks a decoded scenario file must pass before it is solved.
	Validate() error
}

// Scenarios converts a typed scenario slice to the interface slice a
// Workload's Generate hook returns.
func Scenarios[S Scenario](scs []S) []Scenario {
	out := make([]Scenario, len(scs))
	for i, s := range scs {
		out[i] = s
	}
	return out
}

// Output is a variant run's registry-level result.
type Output struct {
	// Checksum is the stable checksum of the semantic output (the suite's
	// "correctness test for the benchmark output data"). Zero when the run
	// was charge-only (ValidateParam unset for a workload that supports it).
	Checksum uint64
	// OverheadBytes is the private-buffer storage the variant had to
	// allocate — the memory-overhead drawback the paper charges against
	// coarse-grained parallelization.
	OverheadBytes uint64
}

// Variant is one program style of a workload.
type Variant struct {
	// Name is unique within the workload ("sequential", "coarse", "fine",
	// "hybrid").
	Name string
	// Style classifies the variant into the paper's three program styles.
	Style Style
	// Defaults hold every tunable parameter with its default value; Exec
	// merges caller params over these, so Run always sees complete params.
	Defaults Params
	// Run executes the variant over one scenario against the machine
	// thread, charging the machine for the work.
	Run func(t *machine.Thread, sc Scenario, p Params) Output
	// OverheadFullScale, when set, projects the variant's private-buffer
	// storage for a worker count at the paper's full problem size — the
	// feasibility argument the tables quote (optional).
	OverheadFullScale func(workers int) uint64
}

// Exec runs the variant with the caller's params merged over the defaults.
func (v *Variant) Exec(t *machine.Thread, sc Scenario, p Params) Output {
	return v.Run(t, sc, p.Merged(v.Defaults))
}

// Workload is one registered benchmark problem.
type Workload struct {
	// Name is the canonical workload id ("threat-analysis") — the golden
	// record kind and the experiments Config key.
	Name string
	// Key is the short flag/scale key ("ta" → -scale-ta).
	Key string
	// FileTag prefixes scenario file names ("threat" → threat-1.c3i).
	FileTag string
	// Title is the human-readable problem name ("Threat Analysis").
	Title string
	// Order positions the workload in listings (paper order first).
	Order int
	// PaperUnits is the per-scenario workload-unit count at scale 1 (the
	// paper's 1000 threats, 60 threat sites, the suite's 12 requests).
	PaperUnits int
	// UnitName names the unit for flag help ("threats/scenario").
	UnitName string
	// DefaultScale is the experiments' default workload scale.
	DefaultScale float64
	// DataScale is cmd/c3idata's default generation scale.
	DataScale float64
	// SmallScale is the workload's smoke-test scale: large enough that all
	// variants exercise their parallel structure, small enough for per-PR
	// validation. CI (`c3idata -scale-small`) and the registry conformance
	// tests derive their sizes from it, so new workloads are covered with
	// no pipeline edits.
	SmallScale float64
	// Reference names the variant whose validated output defines the
	// golden checksum (conventionally "sequential").
	Reference string
	// ValidateVariants names the variants cmd/c3idata -check re-runs
	// against the goldens.
	ValidateVariants []string
	// Generate builds the benchmark's scenario suite at a workload scale
	// (scale 1 ≈ the paper's inputs).
	Generate func(scale float64) []Scenario
	// New returns an empty scenario of the workload's concrete type for a
	// decoder to fill (cmd/c3idata's scenario files).
	New func() Scenario
	// Variants are the workload's program styles, listing order preserved.
	Variants []*Variant
	// Grid, when non-nil, declares the workload's swept scenario-parameter
	// space (see Grid): named axes with discrete values and a registered
	// paper-point default each. Every program style must agree on the
	// output checksum at every declared point — the conformance tests
	// enforce it, `c3ibench -grid` sweeps it.
	Grid *Grid
}

// Variant returns the named variant.
func (w *Workload) Variant(name string) (*Variant, error) {
	for _, v := range w.Variants {
		if v.Name == name {
			return v, nil
		}
	}
	return nil, fmt.Errorf("suite: workload %s has no variant %q", w.Name, name)
}

// MustVariant is Variant for registration-time-verified names.
func (w *Workload) MustVariant(name string) *Variant {
	v, err := w.Variant(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Norm converts measured suite seconds at a reduced scale to paper-scale
// seconds: the paper's per-scenario unit count over the generated one.
func (w *Workload) Norm(scs []Scenario) float64 {
	if len(scs) == 0 || scs[0].Units() == 0 {
		return 1
	}
	return float64(w.PaperUnits) / float64(scs[0].Units())
}

// Styles returns the distinct styles the workload's variants span.
func (w *Workload) Styles() []Style {
	seen := map[Style]bool{}
	var out []Style
	for _, v := range w.Variants {
		if !seen[v.Style] {
			seen[v.Style] = true
			out = append(out, v.Style)
		}
	}
	return out
}

// --- Registry ---------------------------------------------------------------

var (
	regMu  sync.Mutex
	byName = map[string]*Workload{}
	byKey  = map[string]*Workload{}
)

// Register adds a workload to the registry, rejecting incomplete
// descriptors and duplicate names/keys.
func Register(w *Workload) error {
	if err := check(w); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := byName[w.Name]; ok {
		return fmt.Errorf("suite: workload %q already registered", w.Name)
	}
	if prev, ok := byKey[w.Key]; ok {
		return fmt.Errorf("suite: workload key %q already taken by %s", w.Key, prev.Name)
	}
	byName[w.Name] = w
	byKey[w.Key] = w
	return nil
}

// MustRegister is Register for package init blocks.
func MustRegister(w *Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// check validates a descriptor before registration.
func check(w *Workload) error {
	switch {
	case w == nil:
		return fmt.Errorf("suite: nil workload")
	case w.Name == "" || w.Key == "" || w.FileTag == "" || w.Title == "":
		return fmt.Errorf("suite: workload %q needs Name, Key, FileTag and Title", w.Name)
	case w.PaperUnits <= 0:
		return fmt.Errorf("suite: workload %s needs a positive PaperUnits", w.Name)
	case w.DefaultScale <= 0 || w.DataScale <= 0 || w.SmallScale <= 0:
		return fmt.Errorf("suite: workload %s needs positive DefaultScale, DataScale and SmallScale", w.Name)
	case w.Generate == nil:
		return fmt.Errorf("suite: workload %s needs a Generate hook", w.Name)
	case w.New == nil:
		return fmt.Errorf("suite: workload %s needs a New hook", w.Name)
	case len(w.Variants) == 0:
		return fmt.Errorf("suite: workload %s registers no variants", w.Name)
	}
	seen := map[string]bool{}
	for _, v := range w.Variants {
		switch {
		case v == nil || v.Name == "":
			return fmt.Errorf("suite: workload %s has an unnamed variant", w.Name)
		case !v.Style.Valid():
			return fmt.Errorf("suite: workload %s variant %s has invalid style %q", w.Name, v.Name, v.Style)
		case v.Run == nil:
			return fmt.Errorf("suite: workload %s variant %s has no Run hook", w.Name, v.Name)
		case seen[v.Name]:
			return fmt.Errorf("suite: workload %s registers variant %q twice", w.Name, v.Name)
		}
		seen[v.Name] = true
	}
	if w.Reference != "" && !seen[w.Reference] {
		return fmt.Errorf("suite: workload %s reference variant %q not registered", w.Name, w.Reference)
	}
	for _, name := range w.ValidateVariants {
		if !seen[name] {
			return fmt.Errorf("suite: workload %s validate variant %q not registered", w.Name, name)
		}
	}
	if w.Grid != nil {
		if err := checkGrid(w); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the workload registered under name.
func Lookup(name string) (*Workload, error) {
	regMu.Lock()
	defer regMu.Unlock()
	if w, ok := byName[name]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("suite: unknown workload %q", name)
}

// All returns every registered workload in listing order (Order, then Name),
// independent of package-init order.
func All() []*Workload {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Workload, 0, len(byName))
	for _, w := range byName {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns every registered workload name in listing order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}

// SortedKeys returns a map's keys in ascending order — the shared helper for
// deterministic iteration over param maps and paper-number tables.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
