// Package regclean holds the sanctioned counterparts of the reg fixture's
// violations: every Params key declared through a variant default (inline,
// shared var, or Merged overlay) or a grid axis.
package regclean

import (
	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// shared is the shared-defaults idiom: its keys are declarations because a
// Defaults field references it.
var shared = suite.Params{"rounds": 0}

func run(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
	_ = p["rounds"]
	_ = p["chunks"]
	return suite.Output{}
}

// Register declares a workload whose params are all declared.
func Register() {
	suite.MustRegister(&suite.Workload{
		Name: "regclean-wl",
		Variants: []*suite.Variant{
			{Name: "coarse", Style: suite.Coarse, Defaults: shared.Merged(suite.Params{"chunks": 8}), Run: run},
		},
		Grid: &suite.Grid{Axes: []suite.Axis{
			{Name: "chunks", Values: []float64{4, 8}},
		}},
	})
	_ = suite.Params{"chunks": 16}
}
