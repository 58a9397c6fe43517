package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point operands in the
// numeric packages. Exact equality on computed floats is how the
// splitClusters pivot and the tied-distance ECDF bugs of PR 3 slipped
// in: two mathematically equal quantities compare unequal after
// different roundings, or a sentinel test silently passes NaN through.
//
// Exemptions built into the check (everything else needs an
// //lint:ignore with a reason, or a move into an allowlisted helper):
//
//   - x != x and x == x, the standard NaN probes;
//   - comparisons where both operands are compile-time constants;
//   - bodies of the allowlisted sentinel/epsilon helpers below, which
//     exist precisely to centralize exact comparison.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "flag ==/!= on floating-point operands in the numeric packages " +
		"(vecmath, canberra, kneedle, spline, dissim, core) outside sentinel helpers",
	Applies: scopedTo(
		"protoclust/internal/vecmath",
		"protoclust/internal/canberra",
		"protoclust/internal/kneedle",
		"protoclust/internal/spline",
		"protoclust/internal/dissim",
		"protoclust/internal/core",
	),
	Run: runFloatCmp,
}

// floatCmpAllowlist names functions (per import path) whose whole body
// may compare floats exactly: sentinel and epsilon helpers that the
// rest of the package is expected to call instead of using == inline.
var floatCmpAllowlist = map[string]map[string]bool{
	"protoclust/internal/vecmath": {
		"EqualExact":  true,
		"EqualWithin": true,
		"IsZero":      true,
	},
}

func runFloatCmp(pass *Pass) {
	allowed := floatCmpAllowlist[pass.Path]
	funcDecls(pass.Files, func(decl *ast.FuncDecl) {
		if allowed[decl.Name.Name] {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			lt, rt := pass.Info.Types[be.X], pass.Info.Types[be.Y]
			if !isFloat(lt.Type) && !isFloat(rt.Type) {
				return true
			}
			if lt.Value != nil && rt.Value != nil {
				return true // constant fold, decided at compile time
			}
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true // x != x / x == x NaN probe
			}
			pass.Reportf(be.OpPos, "exact float %s comparison; use math.IsNaN/math.IsInf, vecmath.EqualWithin, or an exact-sentinel helper", be.Op)
			return true
		})
	})
}
