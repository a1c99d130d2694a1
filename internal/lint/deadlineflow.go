package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeadlineFlow enforces the invariant PR 4 established by hand: every
// flow from a master-side entry point to a transport Send/Recv must pass
// through a deadline- or timeout-bounded frame. An unbounded transport
// wait on the master or the re-placement controller turns one wedged
// worker into a wedged training loop — exactly the failure the
// RequestTimeout/SetRecvDeadline machinery exists to rule out.
//
// Mechanics (on the call-graph layer): a function "bounds" its subtree
// when its body syntactically establishes a time bound — a
// Set{,Recv,Send,Read,Write}Deadline call or a select with a
// timer-channel case. For every entry point, the propagated
// UnboundedTransport summary yields each conn-like Send/Recv reachable
// on the calling goroutine without crossing a bounding frame, and each
// such site is reported once with its call path.
//
// Entry points are the flows the trainer and operator actually drive:
// every exported function or method in a replace-component package, and
// every exported function or method in a broker-component package except
// methods on Worker-named receivers — the worker's serve loop is the
// passive side of the protocol and legitimately waits forever for the
// next request.
//
// Known limitation: calls through interfaces do not devirtualize, so a
// flow that crosses an interface boundary (replace.Migrator →
// *broker.Executor) is checked from the implementing side's own exported
// entry instead.
var DeadlineFlow = &Analyzer{
	Name:       "deadlineflow",
	Doc:        "entry-point flow reaches a transport Send/Recv with no deadline/timeout bound on the path",
	Components: []string{"broker", "replace"},
	Run:        runDeadlineFlow,
}

func runDeadlineFlow(pass *Pass) {
	type finding struct {
		site  unboundedSite
		entry string
	}
	reported := make(map[token.Pos]finding)
	var order []token.Pos
	for _, fi := range pass.Prog.functions() {
		if fi.Pkg != pass.Pkg || fi.Test || !isDeadlineFlowEntry(fi) {
			continue
		}
		sites := pass.Prog.unboundedTransport(fi)
		keys := make([]token.Pos, 0, len(sites))
		for pos := range sites {
			keys = append(keys, pos)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, pos := range keys {
			if _, seen := reported[pos]; seen {
				continue
			}
			reported[pos] = finding{site: sites[pos], entry: fi.Name}
			order = append(order, pos)
		}
	}
	for _, pos := range order {
		f := reported[pos]
		pass.reportf(pos, "transport %s on %s is reachable from entry point %s with no deadline/timeout bound (path: %s) — set a Send/Recv deadline or guard the wait with a timer select",
			f.site.Op.Name, f.site.Op.Recv, f.entry, f.site.Path)
	}
}

// isDeadlineFlowEntry decides whether a function declared in an analyzed
// (broker or replace) package is a checked entry point.
func isDeadlineFlowEntry(fi *FuncInfo) bool {
	if !fi.Decl.Name.IsExported() {
		return false
	}
	if recv := receiverTypeName(fi.Decl); recv != "" && strings.Contains(recv, "Worker") {
		return false
	}
	return true
}

// receiverTypeName extracts the bare receiver type name of a method
// declaration ("" for plain functions).
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return types.ExprString(t)
		}
	}
}
