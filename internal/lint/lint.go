// Package lint is velavet's analysis engine: a standard-library-only
// static-analysis framework (go/parser + go/types, no external driver)
// plus the domain-specific analyzers that encode VELA's concurrency,
// wire-safety and numeric invariants as merge gates.
//
// The analyzers exist because each invariant has already been violated
// once (or nearly so) in this repo's history: PR 1 fixed a broker that
// blocked on transport sends while the reply path was wedged, and a wire
// decoder that allocated from an unvalidated header. velavet turns those
// review findings into mechanical checks.
//
// Suppression: a finding may be silenced by a comment on the same line
// or the line directly above it, of the one form
//
//	//lint:ignore <analyzer> <why>
//
// The reason is mandatory; a bare ignore is itself reported, and so is a
// directive that suppresses nothing (the analyzer never fires there, or
// the code it excused is gone). Suppressions are for invariants
// deliberately traded away at one site — a goroutine that is
// process-lifetime on purpose, a result that must escape a hot path —
// not for convenience: an analyzer suppressed routinely is mis-scoped,
// and TestSuppressionCensus caps the tree at five directives.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name appears in diagnostics and allow directives.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Components restricts the analyzer to packages whose import path
	// contains at least one of these path components. Empty = every
	// package.
	Components []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// applies reports whether the analyzer runs on the given import path.
func (a *Analyzer) applies(path string) bool {
	for _, want := range a.Components {
		if hasComponent(path, want) {
			return true
		}
	}
	return len(a.Components) == 0
}

// hasComponent reports whether the import path contains the component.
func hasComponent(path, comp string) bool {
	for _, c := range strings.Split(path, "/") {
		if c == comp {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-load flow layer (call graph + summaries), shared
	// across every analyzer of one Run.
	Prog   *Program
	report func(Diagnostic)
}

// fset returns the position set of the analyzed files.
func (p *Pass) fset() *token.FileSet { return p.Pkg.Fset }

// info returns the package's type facts.
func (p *Pass) info() *types.Info { return p.Pkg.Info }

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzers returns the full velavet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockLint,
		ErrDispatch,
		AllocBound,
		PanicPolicy,
		FloatEq,
		AtomicPub,
		DeadlineFlow,
		GoLeak,
		MsgExhaustive,
	}
}

// Run executes every applicable analyzer over every package, drops
// suppressed findings, reports the directives that are reasonless or
// suppressed nothing, and returns the lot sorted by position. The flow
// layer (one body walk, call graph, summaries) is built once over the
// whole load and shared by every pass.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := buildProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs, bare := scanDirectives(pkg)
		diags = append(diags, bare...)
		for _, a := range analyzers {
			if !a.applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: func(d Diagnostic) {
				if !dirs.suppress(d) {
					diags = append(diags, d)
				}
			}}
			a.Run(pass)
		}
		for _, dir := range dirs {
			if !dir.used {
				diags = append(diags, Diagnostic{Pos: dir.pos, Analyzer: "velavet",
					Message: fmt.Sprintf("//lint:ignore %s suppresses nothing here — delete it", dir.analyzer)})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// directive is one //lint:ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	used     bool
}

// directiveSet indexes a package's directives by file and line.
type directiveSet map[lineKey]*directive

type lineKey struct {
	file string
	line int
}

// suppress reports whether d is covered by a directive on its line or
// the line directly above, and marks that directive used.
func (s directiveSet) suppress(d Diagnostic) bool {
	for _, ln := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := s[lineKey{d.Pos.Filename, ln}]; dir != nil && dir.analyzer == d.Analyzer {
			dir.used = true
			return true
		}
	}
	return false
}

// scanDirectives collects a package's //lint:ignore <analyzer> <why>
// comments. One without an analyzer name or a reason is a bare ignore:
// it suppresses nothing and is returned as a finding.
func scanDirectives(pkg *Package) (directiveSet, []Diagnostic) {
	set := make(directiveSet)
	var bare []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 { // name plus at least one reason word
					bare = append(bare, Diagnostic{Pos: pos, Analyzer: "velavet",
						Message: "bare //lint:ignore — a suppression needs a reason: //lint:ignore <analyzer> <why>"})
					continue
				}
				set[lineKey{pos.Filename, pos.Line}] = &directive{pos: pos, analyzer: fields[0]}
			}
		}
	}
	return set, bare
}

// ---- shared type helpers used by several analyzers ----

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamed reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncLock(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// isConnLike reports whether t's method set carries both Send and Recv —
// the structural signature of a transport connection (the concrete
// transport.Conn, the worker's anonymous serve interface, and fixture
// stand-ins all match).
func isConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if _, ok := t.(*types.Pointer); !ok {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	var send, recv bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Send":
			send = true
		case "Recv":
			recv = true
		}
	}
	return send && recv
}

// typeOf resolves the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isTestFile reports whether the file enclosing pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
