// Package registrylint cross-checks the workload registry against its
// consumers, module-wide: every string-literal Params key used in spec
// construction or solver lookups must be declared by some variant's
// Defaults, a grid axis, or the suite's validate switch — an undeclared key
// is a silent typo that reads as zero.
package registrylint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:   "registrylint",
	Doc:    "require every Params key to be a declared registry param",
	Run:    run,
	Finish: finish,
}

// A Use is one string-literal Params key outside a Defaults declaration.
type Use struct {
	Key string
	Pos token.Pos
}

// Facts is the per-package result consumed by Finish. Registers records a
// statically-resolvable workload registration in the package.
type Facts struct {
	ImportPath     string
	Registers      bool
	DeclaredParams []string
	UsedParams     []Use
}

func run(pass *analysis.Pass) (any, error) {
	facts := &Facts{ImportPath: pass.ImportPath}

	// The suite package's validate switch is a declared key everywhere.
	if pass.Pkg != nil && pass.Pkg.Name() == "suite" {
		if obj := pass.Pkg.Scope().Lookup("ValidateParam"); obj != nil {
			if c, ok := obj.(*types.Const); ok && c.Val().Kind() == constant.String {
				facts.DeclaredParams = append(facts.DeclaredParams, constant.StringVal(c.Val()))
			}
		}
	}

	// Params literals declared as variant Defaults are declaration sites,
	// not uses; collect them first so the use scan can skip their subtrees.
	// A Defaults field may hold the literal inline or name a package-level
	// var shared between variants (the plottrack auctionDefaults idiom), so
	// var initializers are resolvable too.
	varInits := map[types.Object]*ast.CompositeLit{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					if lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok && isSuiteType(pass, lit, "Params") {
						varInits[pass.TypesInfo.Defs[name]] = lit
					}
				}
			}
		}
	}
	defaults := map[*ast.CompositeLit]bool{}
	var resolveDefaults func(e ast.Expr)
	resolveDefaults = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			if isSuiteType(pass, e, "Params") {
				defaults[e] = true
				facts.DeclaredParams = append(facts.DeclaredParams, litStringKeys(pass, e)...)
			}
		case *ast.Ident:
			if lit := varInits[pass.TypesInfo.Uses[e]]; lit != nil {
				defaults[lit] = true
				facts.DeclaredParams = append(facts.DeclaredParams, litStringKeys(pass, lit)...)
			}
		case *ast.CallExpr:
			// shared.Merged(suite.Params{...}) composes defaults; both the
			// receiver's and the overlay's keys are declared.
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Merged" {
				resolveDefaults(sel.X)
				for _, arg := range e.Args {
					resolveDefaults(arg)
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Defaults" {
				resolveDefaults(kv.Value)
			}
			return true
		})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				facts.Registers = facts.Registers || isRegistration(pass, n)
			case *ast.CompositeLit:
				if defaults[n] {
					return false // declaration site, keys handled above
				}
				collectLit(pass, n, facts)
			case *ast.IndexExpr:
				// p["key"] lookups inside solvers and spec helpers.
				if tv, ok := pass.TypesInfo.Types[n.X]; ok && isNamed(tv.Type, "suite", "Params") {
					if key, isConst := analysis.ConstString(pass.TypesInfo, n.Index); isConst {
						facts.UsedParams = append(facts.UsedParams, Use{Key: key, Pos: n.Index.Pos()})
					}
				}
			}
			return true
		})
	}
	if !facts.Registers && len(facts.DeclaredParams)+len(facts.UsedParams) == 0 {
		return nil, nil
	}
	return facts, nil
}

// isRegistration reports whether call is a suite.MustRegister /
// suite.Register call on a suite.Workload literal (a registration through a
// variable is resolved elsewhere or not at all).
func isRegistration(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || analysis.FuncPkgName(fn) != "suite" || len(call.Args) != 1 {
		return false
	}
	if fn.Name() != "MustRegister" && fn.Name() != "Register" {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok {
		arg = ast.Unparen(u.X)
	}
	lit, ok := arg.(*ast.CompositeLit)
	return ok && isSuiteType(pass, lit, "Workload")
}

// collectLit records grid-axis declarations and Params literal uses.
func collectLit(pass *analysis.Pass, lit *ast.CompositeLit, facts *Facts) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch {
	case isNamed(tv.Type, "suite", "Axis"):
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				if name, isConst := analysis.ConstString(pass.TypesInfo, kv.Value); isConst {
					facts.DeclaredParams = append(facts.DeclaredParams, name)
				}
			}
		}
	case isNamed(tv.Type, "suite", "Params"):
		for _, key := range litStringKeys(pass, lit) {
			facts.UsedParams = append(facts.UsedParams, Use{Key: key, Pos: lit.Pos()})
		}
	}
}

func litStringKeys(pass *analysis.Pass, lit *ast.CompositeLit) []string {
	var keys []string
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, isConst := analysis.ConstString(pass.TypesInfo, kv.Key); isConst {
			keys = append(keys, key)
		}
	}
	return keys
}

func isSuiteType(pass *analysis.Pass, lit *ast.CompositeLit, name string) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	return ok && isNamed(tv.Type, "suite", name)
}

// isNamed reports whether t (or its pointer element) is a named type with
// the given name declared in a package with the given name. Matching on
// package name rather than import path lets fixtures stub suite.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

func finish(fp *analysis.FinishPass) error {
	paths := make([]string, 0, len(fp.Results))
	for path := range fp.Results {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	declared := map[string]bool{}
	anyRegs := false
	for _, path := range paths {
		facts := fp.Results[path].(*Facts)
		for _, k := range facts.DeclaredParams {
			declared[k] = true
		}
		anyRegs = anyRegs || facts.Registers
	}
	// Only judge uses when the registry surface is part of the run;
	// analyzing a lone consumer package would otherwise flag everything.
	if !anyRegs {
		return nil
	}
	for _, path := range paths {
		for _, use := range fp.Results[path].(*Facts).UsedParams {
			if !declared[use.Key] {
				fp.Reportf(use.Pos,
					"params key %q is not declared by any variant default or grid axis; undeclared keys read as zero",
					use.Key)
			}
		}
	}
	return nil
}
