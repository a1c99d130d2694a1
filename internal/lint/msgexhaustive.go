package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// MsgExhaustive demands full protocol coverage: every switch over the
// wire message type must either handle all declared message kinds or
// carry a default clause that produces an error (a MsgError reply, an
// error return, or a panic). A dispatcher that silently ignores an
// unlisted kind drops protocol messages on the floor the day a new
// MsgType constant lands — the regression becomes invisible exactly when
// the protocol grows — and a reply dispatcher that matches only success
// kinds (no MsgError arm, no default) swallows worker-side failures: the
// master then misattributes the next reply or hangs a correlation slot.
//
// The declared kinds are enumerated from the tag type's own package
// scope, so the check tracks the wire package's constant block with no
// hand-maintained list.
var MsgExhaustive = &Analyzer{
	Name: "msgexhaustive",
	Doc:  "MsgType switch missing declared message kinds without an error-producing default",
	Run:  runMsgExhaustive,
}

// errProducingRe matches identifiers that signal the default clause
// routes unknown kinds into a failure path (errMsg, MsgError, Errorf,
// errors.New, panic...).
var errProducingRe = regexp.MustCompile(`(?i)err|panic|fatal`)

func runMsgExhaustive(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkExhaustiveMsgSwitch(pass, sw)
			return true
		})
	}
}

func checkExhaustiveMsgSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tagType := typeOf(pass.info(), sw.Tag)
	if tagType == nil {
		return
	}
	named, ok := deref(tagType).(*types.Named)
	if !ok || named.Obj().Name() != "MsgType" || named.Obj().Pkg() == nil {
		return
	}
	declared := declaredMsgConsts(named)
	if len(declared) == 0 {
		return
	}

	covered := make(map[string]bool)
	var defaultClause *ast.CaseClause
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.info().Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, c := range declared {
		if !covered[c.val] {
			missing = append(missing, c.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	if defaultClause != nil {
		if defaultProducesError(defaultClause) {
			return
		}
		pass.reportf(defaultClause.Pos(), "default clause of %s switch silently discards %d unhandled message kind(s) (%s) — reply MsgError, return an error, or handle them",
			named.Obj().Name(), len(missing), strings.Join(missing, ", "))
		return
	}
	pass.reportf(sw.Pos(), "switch on %s misses %d declared message kind(s) (%s) and has no default — unknown messages would be silently dropped; add the arms or an error-producing default",
		named.Obj().Name(), len(missing), strings.Join(missing, ", "))
}

// msgConst is one declared constant of the tag type.
type msgConst struct{ name, val string }

// declaredMsgConsts enumerates the constants of the tag's named type
// declared in its defining package, in declaration order.
func declaredMsgConsts(named *types.Named) []msgConst {
	scope := named.Obj().Pkg().Scope()
	var out []msgConst
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		out = append(out, msgConst{name: c.Name(), val: c.Val().ExactString()})
	}
	return out
}

// defaultProducesError reports whether a default clause routes the
// unknown kind into a visible failure: it mentions an error-ish
// identifier (errMsg, MsgError, Errorf, errors, panic) anywhere in its
// body. An empty default never qualifies.
func defaultProducesError(cc *ast.CaseClause) bool {
	if len(cc.Body) == 0 {
		return false
	}
	found := false
	for _, st := range cc.Body {
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && errProducingRe.MatchString(id.Name) {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
