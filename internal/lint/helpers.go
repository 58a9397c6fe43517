package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves the function or method a call expression invokes,
// or nil when the callee is not a declared *types.Func (conversions,
// builtins, calls through function-typed variables).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function
// pkgPath.name (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isFloat reports whether t's core type is a floating-point basic type
// (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContextParam reports whether any parameter of the signature is a
// context.Context.
func hasContextParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultErrorPositions returns the indexes of results in the call's
// type that are exactly `error`.
func resultErrorPositions(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var idx []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				idx = append(idx, i)
			}
		}
		return idx
	default:
		if t != nil && types.Identical(t, errorType) {
			return []int{0}
		}
	}
	return nil
}

// funcDecls walks every function and method declaration in the pass,
// handing the body walk to fn. Declarations without bodies are skipped.
func funcDecls(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
