package lint

import (
	"go/ast"
	"go/types"
)

// PanicPolicy enforces VELA's failure-domain rule: a package that parses
// or acts on bytes arriving from a peer or a file returns errors. A
// panic there takes down a worker process on malformed input, and the
// master sees a vanished connection rather than a MsgError it can
// surface.
//
// Scope, by rule: the packages where such bytes are decoded or decided
// on — broker, wire, transport, checkpoint, core, replace and the
// commands. Everywhere else (the numeric substrate, the model, the data
// and placement layers) a panic is a constructor, merge or collective
// precondition on values the program itself built: a programming error
// caught in development, which is what a panic is for.
var PanicPolicy = &Analyzer{
	Name:       "panicpolicy",
	Doc:        "panic in a package that handles bytes from a peer or a file",
	Components: []string{"broker", "wire", "transport", "checkpoint", "core", "replace", "cmd"},
	Run:        runPanicPolicy,
}

func runPanicPolicy(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if b, ok := pass.info().Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
				return true
			}
			// Test files may panic (the testing runtime converts it into
			// a failure with a stack).
			if isTestFile(pass.fset(), call.Pos()) {
				return true
			}
			pass.reportf(call.Pos(), "panic in runtime package %s, which handles bytes from a peer or a file — return an error instead",
				pass.Pkg.Path)
			return true
		})
	}
}
