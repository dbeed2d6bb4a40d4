// Package reg exercises every violation path of the registrylint analyzer:
// Params keys never declared by a variant default or grid axis.
package reg

import (
	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

func run(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
	_ = p["tuned"] // want `params key "tuned" is not declared`
	return suite.Output{}
}

// Register declares a workload whose variant default declares "chunks".
func Register() {
	suite.MustRegister(&suite.Workload{
		Name: "reg-wl",
		Variants: []*suite.Variant{
			{Name: "sequential", Style: suite.Sequential, Defaults: suite.Params{"chunks": 4}, Run: run},
		},
	})
	_ = suite.Params{"typo": 1} // want `params key "typo" is not declared`
}
