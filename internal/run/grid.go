package run

import (
	"fmt"

	"repro/internal/c3i/suite"
)

// GridPoint couples one coordinate of a workload's declared scenario grid
// with the normalized Spec that runs it. An axis's name says where its value
// lands: "scale" on Spec.Scale, "net" on Spec.NetLatencyMult, and any other
// axis in Spec.Params. Grid Specs always validate, so every record of a
// sweep carries the output checksum the conformance contract is stated
// over.
type GridPoint struct {
	// Label is the grid's canonical point rendering ("scale=0.05,gate=24").
	Label string
	// Point is the grid coordinate, every axis resolved.
	Point suite.Point
	// Spec is the normalized run description for the point.
	Spec Spec
}

// GridSpecs expands a workload's declared grid into one normalized Spec per
// point, in the grid's canonical order (row-major over the declared axes).
// An empty variant selects the workload's reference variant; restrict, when
// non-empty, limits named axes to subsets of their declared values (see
// suite.Grid.Sub). A workload that declares no grid is an error — sweeps
// outside the declared space have no conformance coverage.
func GridSpecs(workload, variant, platform string, procs int, restrict map[string][]float64) ([]GridPoint, error) {
	w, err := suite.Lookup(workload)
	if err != nil {
		return nil, err
	}
	if w.Grid == nil {
		return nil, fmt.Errorf("run: workload %s declares no scenario grid", workload)
	}
	if variant == "" {
		variant = w.Reference
	}
	g := w.Grid
	if len(restrict) > 0 {
		if g, err = g.Sub(restrict); err != nil {
			return nil, err
		}
	}
	pts := g.Points()
	out := make([]GridPoint, 0, len(pts))
	for _, pt := range pts {
		spec := Spec{Workload: workload, Variant: variant, Platform: platform, Procs: procs, Validate: true}
		for _, a := range g.Axes {
			switch v := pt[a.Name]; a.Name {
			case "scale":
				spec.Scale = v
			case "net":
				spec.NetLatencyMult = v
			default:
				if spec.Params == nil {
					spec.Params = suite.Params{}
				}
				spec.Params[a.Name] = int(v)
			}
		}
		ns, err := spec.Normalized()
		if err != nil {
			return nil, fmt.Errorf("run: grid point %s: %w", g.PointLabel(pt), err)
		}
		out = append(out, GridPoint{Label: g.PointLabel(pt), Point: pt, Spec: ns})
	}
	return out, nil
}
