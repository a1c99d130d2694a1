package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags `==` and `!=` between floating-point operands. After a
// value has crossed the wire in binary16, been summed in a different
// reduction order, or passed through an optimizer step, exact equality
// is a coin flip: comparisons must go through a tolerance helper
// (internal/testutil's AlmostEqual family), or — where bit-exactness is
// the property — say so through testutil.BitEqual / math.Float64bits.
//
// Exact by construction, and exempt by rule:
//   - the self-comparison NaN idiom (x != x);
//   - a comparison with a constant operand (`== 0` and other sentinels:
//     a value stored and read back untouched, not computed);
//   - a comparison with a math.Inf(…) or math.Trunc(…) operand (IEEE
//     class dispatch; integrality of a decoded count);
//   - the tolerance helpers themselves (any package with a "testutil"
//     path component).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "exact == / != between computed floating-point values",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	if hasComponent(pass.Pkg.Path, "testutil") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(typeOf(pass.info(), be.X)) && !isFloat(typeOf(pass.info(), be.Y)) {
				return true
			}
			// x != x / x == x is the NaN check; leave it alone.
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true
			}
			if exactOperand(pass.info(), be.X) || exactOperand(pass.info(), be.Y) {
				return true
			}
			pass.reportf(be.Pos(), "exact floating-point %s — use a tolerance compare (testutil.AlmostEqual), or testutil.BitEqual / math.Float64bits where bit-exactness is the property; float equality does not survive wire quantization or reduction reordering",
				be.Op)
			return true
		})
	}
}

// isFloat reports whether t is a floating-point basic type (including
// untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exactOperand reports whether e makes a comparison exact by
// construction: a constant, or a math.Inf / math.Trunc call.
func exactOperand(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	key := calleeKey(info, call)
	return key == "math.Inf" || key == "math.Trunc"
}
