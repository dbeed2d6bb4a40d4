package suite

// The scenario grid: Task Bench's parameterized-benchmark idea applied to
// the registry. A workload's paper numbers pin one point in a larger
// problem-shape space (workload scale, gating window, prune threshold,
// network maturity, …); a Grid declares that space explicitly — named axes
// with discrete values and a registered paper-point default each — so every
// consumer (c3ibench sweeps, conformance tests, the serving tier) can
// enumerate the same points instead of inventing ad-hoc sweeps. The
// conformance contract extends along with it: all of a workload's program
// styles must agree on the output checksum at every declared grid point,
// not just at the paper scales.

import (
	"fmt"
	"math"
	"strings"
)

// Axis is one named dimension of a workload's scenario grid. Its name
// alone says where a value lands on a run description: "scale" values are
// workload scales (fractions of the paper-scale unit count), "net" values
// are Tera MTA network-latency multipliers (0 = the calibrated network, so
// sweeping a nonzero value requires platform "tera"), and any other name is
// an integer variant tunable that every variant must declare a default for,
// so no program style can silently ignore the axis.
type Axis struct {
	// Name identifies the axis ("scale", "gate", "prune", "net") and is the
	// key of Point.
	Name string
	// Unit is the human-readable unit for listings ("field units").
	Unit string
	// Values are the axis's declared discrete values. Sweeps and sub-grids
	// may only use declared values — the grid is the contract of which
	// problem shapes the conformance tests have covered.
	Values []float64
	// Default is the registered paper point; it must be a declared value.
	Default float64
}

// declared reports whether v is one of the axis's declared values.
func (a Axis) declared(v float64) bool {
	for _, dv := range a.Values {
		if dv == v {
			return true
		}
	}
	return false
}

// Grid is a workload's declared scenario-parameter space: the cross-product
// of its axes' values. The zero point of nothing — a grid needs at least
// one axis to register.
type Grid struct {
	Axes []Axis
}

// Point is one grid coordinate: axis name → declared value.
type Point map[string]float64

// Axis returns the named axis.
func (g *Grid) Axis(name string) (Axis, error) {
	for _, a := range g.Axes {
		if a.Name == name {
			return a, nil
		}
	}
	return Axis{}, fmt.Errorf("suite: grid has no axis %q", name)
}

// NumPoints returns the size of the grid's cross-product.
func (g *Grid) NumPoints() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Points enumerates every grid point in canonical order: row-major over the
// declared axes, first axis slowest, values in declared order. The order is
// part of the artifact contract — a sweep's records line up with Points.
func (g *Grid) Points() []Point {
	pts := []Point{{}}
	for _, a := range g.Axes {
		next := make([]Point, 0, len(pts)*len(a.Values))
		for _, p := range pts {
			for _, v := range a.Values {
				np := make(Point, len(p)+1)
				for k, pv := range p {
					np[k] = pv
				}
				np[a.Name] = v
				next = append(next, np)
			}
		}
		pts = next
	}
	return pts
}

// Sub returns the sub-grid with each named axis restricted to the listed
// values (axes not named keep their full value lists). Every restriction
// value must be declared on its axis — a sweep outside the declared grid is
// outside the conformance contract and is rejected, not silently run. The
// sub-grid keeps the declared value order, whatever order the restriction
// lists them in.
func (g *Grid) Sub(restrict map[string][]float64) (*Grid, error) {
	sub := &Grid{Axes: make([]Axis, len(g.Axes))}
	copy(sub.Axes, g.Axes)
	for name, vals := range restrict {
		if len(vals) == 0 {
			return nil, fmt.Errorf("suite: grid axis %q restricted to no values", name)
		}
		found := false
		for i, a := range sub.Axes {
			if a.Name != name {
				continue
			}
			found = true
			want := map[float64]bool{}
			for _, v := range vals {
				if !a.declared(v) {
					return nil, fmt.Errorf("suite: grid axis %q has no declared value %g (declared: %s)",
						name, v, formatValues(a.Values))
				}
				want[v] = true
			}
			kept := make([]float64, 0, len(want))
			for _, v := range a.Values {
				if want[v] {
					kept = append(kept, v)
				}
			}
			a.Values = kept
			if !a.declared(a.Default) {
				a.Default = kept[0]
			}
			sub.Axes[i] = a
		}
		if !found {
			return nil, fmt.Errorf("suite: grid has no axis %q", name)
		}
	}
	return sub, nil
}

// PointLabel renders a Point canonically: "axis=value" in declared axis
// order, joined with ",". Omitted axes render their defaults, so points
// that differ only by spelling a default out label equally.
func (g *Grid) PointLabel(p Point) string {
	parts := make([]string, 0, len(g.Axes))
	for _, a := range g.Axes {
		v := a.Default
		if pv, ok := p[a.Name]; ok {
			v = pv
		}
		parts = append(parts, fmt.Sprintf("%s=%g", a.Name, v))
	}
	return strings.Join(parts, ",")
}

// formatValues renders a value list for listings and diagnostics.
func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, ",")
}

// checkGrid validates a workload's declared grid at registration time.
func checkGrid(w *Workload) error {
	g := w.Grid
	if len(g.Axes) == 0 {
		return fmt.Errorf("suite: workload %s declares an empty grid", w.Name)
	}
	seen := map[string]bool{}
	for _, a := range g.Axes {
		switch {
		case a.Name == "":
			return fmt.Errorf("suite: workload %s declares an unnamed grid axis", w.Name)
		case strings.ContainsAny(a.Name, " =:;,"):
			return fmt.Errorf("suite: workload %s grid axis %q: names must be flag-syntax safe", w.Name, a.Name)
		case a.Name == ValidateParam:
			return fmt.Errorf("suite: workload %s grid axis name %q is reserved", w.Name, a.Name)
		case seen[a.Name]:
			return fmt.Errorf("suite: workload %s declares grid axis %q twice", w.Name, a.Name)
		case len(a.Values) == 0:
			return fmt.Errorf("suite: workload %s grid axis %q declares no values", w.Name, a.Name)
		case !a.declared(a.Default):
			return fmt.Errorf("suite: workload %s grid axis %q default %g is not a declared value",
				w.Name, a.Name, a.Default)
		}
		seen[a.Name] = true
		param := a.Name != "scale" && a.Name != "net"
		vseen := map[float64]bool{}
		for _, v := range a.Values {
			if vseen[v] {
				return fmt.Errorf("suite: workload %s grid axis %q declares value %g twice", w.Name, a.Name, v)
			}
			vseen[v] = true
			switch {
			case a.Name == "scale" && v <= 0:
				return fmt.Errorf("suite: workload %s grid axis scale value %g, need positive", w.Name, v)
			case a.Name == "net" && v < 0:
				return fmt.Errorf("suite: workload %s grid axis net value %g, need ≥ 0", w.Name, v)
			case param && v != math.Trunc(v):
				return fmt.Errorf("suite: workload %s param axis %q value %g is not an integer", w.Name, a.Name, v)
			}
		}
		if !param {
			continue
		}
		for _, vr := range w.Variants {
			if _, ok := vr.Defaults[a.Name]; !ok {
				return fmt.Errorf("suite: workload %s grid axis %q is not a default of variant %s — a style would silently ignore the axis",
					w.Name, a.Name, vr.Name)
			}
		}
	}
	return nil
}
