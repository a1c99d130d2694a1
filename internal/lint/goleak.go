package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GoLeak is the static twin of testutil.VerifyNoLeaks: every `go func`
// literal must have a visible shutdown discipline. A goroutine with no
// exit path outlives the work that spawned it; as replication, serving
// and speculative dispatch multiply the supervisor-style loops, silent
// leaks become steady-state memory growth and shutdown hangs.
//
// A spawned literal is accounted for when any of these hold:
//
//  1. Its body receives from (or selects on) a shutdown-ish channel —
//     one whose expression mentions done/quit/stop/abort/exit/close/
//     cancel/ctx, which covers ctx.Done(), s.stop, abort, state.closed.
//  2. Its body sends on a shutdown-ish channel (the completion-signal
//     idiom: `serveDone <- w.Serve(conn)`).
//  3. It is WaitGroup-registered: the body calls Done on a
//     sync.WaitGroup (typically `defer wg.Done()`).
//
// A goroutine that is process-lifetime on purpose (a signal handler, a
// worker pool) says so with `//lint:ignore goleak <why>` on the go
// statement's line or the line above.
//
// Test files are exempt: the dynamic testutil.VerifyNoLeaks gate already
// covers them, and test helpers spawn freely.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "go func literal with no shutdown path (done-channel select, completion send, or WaitGroup)",
	Run:  runGoLeak,
}

// shutdownChanRe matches channel expressions that name a shutdown or
// completion signal.
var shutdownChanRe = regexp.MustCompile(`(?i)(done|quit|stop|abort|exit|clos|cancel|ctx)`)

func runGoLeak(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.fset(), f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true // `go method()` spawns a named loop; its hygiene shows in its declaration
			}
			if goroutineAccounted(pass.info(), lit.Body) {
				return true
			}
			pass.reportf(g.Pos(), "goroutine has no shutdown path — select on a done/quit channel, register it with a WaitGroup, or, for a process-lifetime goroutine, annotate `//lint:ignore goleak <why>`")
			return true
		})
	}
}

// goroutineAccounted reports whether a spawned body carries one of the
// recognized shutdown disciplines.
func goroutineAccounted(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr: // <-ch receive
			if n.Op == token.ARROW && shutdownChanRe.MatchString(types.ExprString(n.X)) {
				found = true
			}
		case *ast.SendStmt: // completion signal
			if shutdownChanRe.MatchString(types.ExprString(n.Chan)) {
				found = true
			}
		case *ast.RangeStmt: // range over a shutdown-ish channel
			if t := typeOf(info, n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && shutdownChanRe.MatchString(types.ExprString(n.X)) {
					found = true
				}
			}
		case *ast.CallExpr: // wg.Done()
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if isNamed(typeOf(info, sel.X), "sync", "WaitGroup") {
					found = true
				}
			}
		case *ast.FuncLit:
			// A nested literal's discipline does not vouch for the outer
			// goroutine... but a nested spawn is its own GoStmt visit.
			return true
		}
		return true
	})
	return found
}
