// Package analysis is a small, dependency-free static-analysis framework in
// the spirit of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics, and
// may additionally contribute per-package facts to a module-wide Finish hook
// for cross-package invariants (registry Params-key declarations, metric
// label-set consistency).
//
// The framework deliberately depends only on the standard library: packages
// are loaded offline via `go list -export` and type-checked against the
// compiler's export data (see load.go), so the checker runs in hermetic CI
// and developer environments without a module cache.
//
// Diagnostics can be silenced at a call site with a suppression comment on
// the flagged line or the line above it:
//
//	//c3ivet:ignore <analyzer> <reason>
//
// The reason is mandatory — an ignore directive without one is itself
// reported — so every suppression documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in suppression comments.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Flags declares per-analyzer string settings; drivers expose each as
	// -<analyzer>.<flag>.
	Flags []*Flag

	// Run inspects one package. The returned value is recorded as the
	// package's fact for Finish (nil if the analyzer has no cross-package
	// component).
	Run func(*Pass) (any, error)

	// Finish, if non-nil, runs once after every package has been analyzed,
	// with access to all per-package Run results. Cross-package invariants
	// report through it.
	Finish func(*FinishPass) error
}

// A Flag is a named, documented string setting on an Analyzer.
type Flag struct {
	Name  string
	Usage string
	Value *string // points at the analyzer's setting; drivers bind it
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File // non-test source files, parsed with comments
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A FinishPass presents the accumulated per-package facts of one Analyzer
// after the whole run.
type FinishPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Results maps import path → the value returned by Run for that package,
	// for every package where Run returned non-nil.
	Results map[string]any

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (fp *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	fp.report(Diagnostic{
		Analyzer: fp.Analyzer.Name,
		Pos:      fp.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}
