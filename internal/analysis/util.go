package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CalleeFunc resolves the statically-known function or method a call
// expression invokes, or nil (builtins, function values, type conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ConstString evaluates expr as a compile-time string constant.
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// FuncPkgPath returns the import path of the package a function belongs to
// ("" for builtins without a package).
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// FuncPkgName returns the name of the package a function belongs to. Matching
// analyzers key on package *name* rather than import path so analysistest
// fixtures can stub the real packages under testdata.
func FuncPkgName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// RecvNamed returns the named type of a method's receiver, dereferencing one
// pointer, or nil for non-methods.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
