package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the context-propagation discipline: cancellation
// must reach every stage, so every library entry point that does
// cancellable work takes a ctx first and hands it on.
//
// Two rules, in non-main packages and outside tests:
//
//  1. A function that has a ctx parameter must never manufacture
//     context.Background() or context.TODO() — pass the ctx it was
//     given.
//  2. Elsewhere, context.Background() is reported too: a library
//     function without a ctx severs cancellation for everything below
//     it, so it takes one. context.TODO() is never allowed. A root
//     context that outlives every caller (a service's lifetime
//     context) is the one legitimate exception and carries a
//     //lint:ignore with its reason.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require received contexts to be threaded onward: no context.Background()/TODO() outside main packages and tests",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	funcDecls(pass.Files, func(decl *ast.FuncDecl) {
		hasCtx := declHasContextParam(pass, decl)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Info, call)
			switch {
			case isPkgFunc(fn, "context", "TODO"):
				pass.Reportf(call.Pos(), "context.TODO() in %s: decide the real context (thread a ctx parameter)", decl.Name.Name)
			case isPkgFunc(fn, "context", "Background") && hasCtx:
				pass.Reportf(call.Pos(), "%s already receives a ctx; pass it instead of context.Background()", decl.Name.Name)
			case isPkgFunc(fn, "context", "Background"):
				pass.Reportf(call.Pos(), "context.Background() in %s severs cancellation; thread a ctx parameter", decl.Name.Name)
			}
			return true
		})
	})
}

// declHasContextParam reports whether the declaration takes a
// context.Context parameter.
func declHasContextParam(pass *Pass, decl *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && hasContextParam(sig)
}
