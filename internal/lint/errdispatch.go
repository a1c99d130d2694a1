package lint

import (
	"go/ast"
)

// ErrDispatch enforces the broker protocol's failure-visibility
// invariant: the error result of Send/Recv on a connection-like value
// must not be discarded. A dropped Send error detaches the sender from
// reality (the peer never saw the message); a dropped Recv error spins.
//
// Scope, by rule: Send and Recv only — Close on a connection being
// abandoned has no failure path to route its error into, and every
// Close the analyzer ever flagged was one — and non-test files only: a
// test that drops a Send error asserts on the reply it then fails to
// get. (That a MsgType switch handles MsgError is msgexhaustive's.)
var ErrDispatch = &Analyzer{
	Name: "errdispatch",
	Doc:  "ignored Send/Recv errors on a connection",
	Run:  runErrDispatch,
}

func runErrDispatch(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.fset(), f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt: // c.Send(m): every result discarded
				if sel := connOp(pass, n.X); sel != nil {
					pass.reportf(n.Pos(), "error from %s.%s discarded — handle it or route it into the exchange's failure path",
						exprText(sel.X), sel.Sel.Name)
				}
			case *ast.AssignStmt: // _ = c.Send(m); m, _ := c.Recv()
				if len(n.Rhs) != 1 {
					break
				}
				sel := connOp(pass, n.Rhs[0])
				// The error is the last result; it must not be blank.
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if sel == nil || !ok || last.Name != "_" {
					break
				}
				pass.reportf(n.Pos(), "error from %s.%s assigned to _ — handle it or route it into the exchange's failure path",
					exprText(sel.X), sel.Sel.Name)
			}
			return true
		})
	}
}

// connOp returns e's selector if e is a Send or Recv call on a
// connection-like value, else nil.
func connOp(pass *Pass, e ast.Expr) *ast.SelectorExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Send" && sel.Sel.Name != "Recv") || !isConnLike(typeOf(pass.info(), sel.X)) {
		return nil
	}
	return sel
}

// exprText renders a short receiver expression for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	default:
		return "conn"
	}
}
