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
// or the line directly above it, of the canonical form
//
//	//lint:ignore <analyzer> <why>
//
// The reason is mandatory; a bare ignore is itself reported.
// Suppressions are for invariants deliberately traded away at one call
// site (e.g. a documented serialization lock), not for convenience.
// goleak additionally recognizes `//lint:longlived <why>` as a positive
// annotation for deliberately process-lifetime goroutines.
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
	if len(a.Components) == 0 {
		return true
	}
	for _, comp := range strings.Split(path, "/") {
		for _, want := range a.Components {
			if comp == want {
				return true
			}
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

// Fset returns the position set of the analyzed files.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Info returns the package's type facts.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
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

// Analyzers returns the full velavet suite in stable order: the five
// syntactic v1 analyzers followed by the four flow/type-aware v2
// analyzers built on the call-graph layer.
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
// suppressed findings, and returns the remainder sorted by position.
// The flow layer (call graph + summaries) is built once over the whole
// load and shared by every pass.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := allowDirectives(pkg)
		for _, a := range analyzers {
			if !a.applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: func(d Diagnostic) {
				if !allow.covers(d) {
					diags = append(diags, d)
				}
			}}
			a.Run(pass)
		}
		diags = append(diags, allow.malformed...)
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

// allowSet indexes suppression directives (both spellings) by file, line
// and analyzer.
type allowSet struct {
	byLine    map[string]map[int]map[string]bool
	malformed []Diagnostic
}

// covers reports whether d is suppressed by a directive on its line or
// the line directly above.
func (s *allowSet) covers(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if names := lines[ln]; names[d.Analyzer] || names["*"] {
			return true
		}
	}
	return false
}

// ignorePrefix is the suppression directive: //lint:ignore <analyzer> <why>.
const ignorePrefix = "lint:ignore"

// allowDirectives scans a package's comments for suppression directives.
// A directive without an analyzer name or a reason is a bare ignore and
// is itself reported.
func allowDirectives(pkg *Package) *allowSet {
	s := &allowSet{byLine: make(map[string]map[int]map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok {
					continue
				}
				names, ok := parseIgnore(text)
				if !ok {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "velavet",
						Message:  "bare //lint:ignore — a suppression needs a reason: //lint:ignore <analyzer> <why>",
					})
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s.byLine[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = make(map[string]bool)
				}
				for _, n := range names {
					lines[pos.Line][n] = true
				}
			}
		}
	}
	return s
}

// parseIgnore parses a directive's text: first field the analyzer name
// (comma-separated for several), the remainder the mandatory reason.
func parseIgnore(text string) ([]string, bool) {
	fields := strings.Fields(text)
	if len(fields) < 2 { // name plus at least one reason word
		return nil, false
	}
	names := strings.Split(fields[0], ",")
	for _, n := range names {
		if n == "" {
			return nil, false
		}
	}
	return names, true
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

// enclosingFuncName walks decls to find the named function containing
// pos; function literals inherit the enclosing declaration's name.
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pos >= fd.Pos() && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// isTestFile reports whether the file enclosing pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
