package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectation patterns from a // want
// comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// fixtureWant is one expected diagnostic, anchored to a file and line.
type fixtureWant struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixture loads testdata/src/<analyzer>, runs just that analyzer,
// and asserts the produced diagnostics exactly match the // want
// comments in the fixture files: every want must be hit on its own
// line, and no diagnostic may land without a want.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	pkgs, err := Load(Config{Dir: dir, IncludeTests: true})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", dir)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture %s does not typecheck: %v", p.Path, terr)
		}
	}

	wants := collectWants(t, pkgs)
	diags := Run(pkgs, []*Analyzer{a})

	for _, d := range diags {
		hit := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// collectWants scans the fixture files' comments for // want "pattern"
// expectations.
func collectWants(t *testing.T, pkgs []*Package) []*fixtureWant {
	t.Helper()
	var wants []*fixtureWant
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					groups := wantRe.FindAllStringSubmatch(rest, -1)
					if len(groups) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, g := range groups {
						re, err := regexp.Compile(g[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						}
						wants = append(wants, &fixtureWant{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// TestLockLintCatchesPR1Deadlock re-introduces the PR-1
// send-then-recv-under-lock pattern in fixture form and demands a
// pointed diagnostic on every blocking call under the lock.
func TestLockLintCatchesPR1Deadlock(t *testing.T) { runFixture(t, LockLint) }

// TestErrDispatch covers dropped Send/Recv errors, and that Close and
// test files are out of scope.
func TestErrDispatch(t *testing.T) { runFixture(t, ErrDispatch) }

// TestAllocBoundCatchesUncheckedHeaderMake re-introduces the PR-1
// unchecked wire-header allocation and demands a diagnostic, while the
// checked decode shape stays clean.
func TestAllocBoundCatchesUncheckedHeaderMake(t *testing.T) { runFixture(t, AllocBound) }

// TestPanicPolicy covers the panic ban in packages that handle bytes
// from a peer (broker) or a file (checkpoint), and that the numeric
// substrate and the model layer are out of scope.
func TestPanicPolicy(t *testing.T) { runFixture(t, PanicPolicy) }

// TestFloatEq covers exact float comparisons between computed values
// and the exact-by-construction exemptions: the NaN idiom, a constant
// operand, math.Inf / math.Trunc, and a Float64bits compare.
func TestFloatEq(t *testing.T) { runFixture(t, FloatEq) }

// TestAtomicPub covers both publication halves: a field published via
// sync/atomic read plainly elsewhere, a mutex-guarded field read
// lock-free, the fooLocked helper rescued through the call graph, and
// the typed-atomic/build-then-publish exemptions.
func TestAtomicPub(t *testing.T) { runFixture(t, AtomicPub) }

// TestDeadlineFlow covers the entry-point flow check: unbounded
// Send/Recv reached through a helper is reported at the site with its
// call path, a deadline-setting frame covers its subtree, a timer
// select bounds its frame, and Worker receivers are exempt.
func TestDeadlineFlow(t *testing.T) { runFixture(t, DeadlineFlow) }

// TestGoLeak covers the shutdown disciplines: done-channel select,
// WaitGroup registration, completion send, ctx.Done, the process-lifetime
// directive — and flags the bare forever-loops.
func TestGoLeak(t *testing.T) { runFixture(t, GoLeak) }

// TestMsgExhaustive covers MsgType switch coverage: missing kinds with
// no default (among them the two MsgError-less reply dispatchers
// errdispatch's retired switch leg flagged), a silent default, and the
// error-producing defaults plus full enumeration staying clean.
func TestMsgExhaustive(t *testing.T) { runFixture(t, MsgExhaustive) }

// TestAnalyzerScoping pins the package-component scoping: locklint,
// allocbound and panicpolicy are domain-specific and must not fire
// outside their packages.
func TestAnalyzerScoping(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{LockLint, "repro/internal/broker", true},
		{LockLint, "repro/internal/transport", false},
		{AllocBound, "repro/internal/wire", true},
		{AllocBound, "repro/internal/broker", true},
		{AllocBound, "repro/internal/tensor", true},
		{AllocBound, "repro/internal/nn", true},
		{AllocBound, "repro/internal/moe", true},
		{AllocBound, "repro/internal/obs", true},
		{AllocBound, "repro/internal/trainer", false},
		{FloatEq, "repro/internal/anything", true},
		{PanicPolicy, "repro/internal/broker", true},
		{PanicPolicy, "repro/internal/checkpoint", true},
		{PanicPolicy, "repro/cmd/velaworker", true},
		{PanicPolicy, "repro/internal/tensor", false},
		{PanicPolicy, "repro/internal/moe", false},
		{PanicPolicy, "repro/internal/sim", false},
	}
	for _, c := range cases {
		if got := c.a.applies(c.path); got != c.want {
			t.Errorf("%s.applies(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}

// TestAnalyzersTolerateBodylessFuncs pins that a function declared
// without a body — its implementation is in a .s file, as in
// internal/tensor — passes through every analyzer: one package per scoped
// path component, each holding a body-less function and method called
// from a locked per-step hot path, must load and come out clean.
func TestAnalyzersTolerateBodylessFuncs(t *testing.T) {
	const src = `package %s

import "sync"

type T struct {
	mu sync.Mutex
	n  int
}

func kernel(k int, p *float64) float64

func (t *T) asm() int

func (t *T) Forward(x []float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n = t.asm()
	return kernel(len(x), &x[0])
}
`
	files := map[string]string{"go.mod": "module m\n\ngo 1.22\n"}
	for _, a := range Analyzers() {
		for _, comp := range a.Components {
			files[comp+"/a.go"] = fmt.Sprintf(src, comp)
		}
	}
	pkgs, err := Load(Config{Dir: writeModule(t, files)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s does not typecheck: %v", p.Path, terr)
		}
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestUnusedIgnoreIsReported pins that a directive which suppresses a
// finding is silent and one that suppresses nothing is itself a finding
// — whether the analyzer never inspects that line, does not run on that
// package, or does not exist.
func TestUnusedIgnoreIsReported(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"broker/a.go": `package broker

func used(a, b float64) bool {
	//lint:ignore floateq fixture: suppresses the finding below
	return a == b
}

func inert(a, b int) bool {
	//lint:ignore floateq integers: floateq never fires here
	return a == b
}

func misspelt(a, b float64) bool {
	return a == b //lint:ignore floateqq no such analyzer
}
`,
		"moe/a.go": `package moe

func outOfScope() {
	//lint:ignore panicpolicy panicpolicy does not run on moe
	panic("precondition")
}
`,
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Run(pkgs, Analyzers()) {
		got = append(got, fmt.Sprintf("%s:%d: %s: %s", filepath.Base(filepath.Dir(d.Pos.Filename)), d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		"broker:9: velavet: //lint:ignore floateq suppresses nothing here — delete it",
		"broker:14: floateq: exact floating-point ==",
		"broker:14: velavet: //lint:ignore floateqq suppresses nothing here — delete it",
		"moe:4: velavet: //lint:ignore panicpolicy suppresses nothing here — delete it",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("diagnostic %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestBuildConstraintSatisfied pins the loader's build-tag handling:
// files gated behind optional tags (race, integration) are excluded,
// their !tag counterparts and untagged files load, and host-platform
// constraints evaluate against the running GOOS/GOARCH.
func TestBuildConstraintSatisfied(t *testing.T) {
	parse := func(src string) *ast.File {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"package x", true},
		{"//go:build race\n\npackage x", false},
		{"//go:build !race\n\npackage x", true},
		{"//go:build " + runtime.GOOS + "\n\npackage x", true},
		{"//go:build !" + runtime.GOOS + "\n\npackage x", false},
		{"//go:build race && " + runtime.GOOS + "\n\npackage x", false},
	}
	for _, c := range cases {
		if got := buildConstraintSatisfied(parse(c.src)); got != c.want {
			t.Errorf("buildConstraintSatisfied(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestFileNameSatisfied pins the file-name half of the build
// configuration: _GOOS, _GOARCH and _GOOS_GOARCH suffixes, with or
// without _test, against the running platform.
func TestFileNameSatisfied(t *testing.T) {
	otherArch, otherOS := "arm64", "plan9"
	if runtime.GOARCH == otherArch {
		otherArch = "amd64"
	}
	if runtime.GOOS == otherOS {
		otherOS = "linux"
	}
	cases := []struct {
		name string
		want bool
	}{
		{"x.go", true},
		{"x_test.go", true},
		{"x_" + runtime.GOARCH + ".go", true},
		{"x_" + otherArch + ".go", false},
		{"x_" + runtime.GOOS + "_test.go", true},
		{"x_" + otherOS + "_test.go", false},
		{"x_" + runtime.GOOS + "_" + runtime.GOARCH + ".go", true},
		{"x_" + runtime.GOOS + "_" + otherArch + ".go", false},
		{"x_" + otherOS + "_" + runtime.GOARCH + ".go", false},
		{otherArch + ".go", true},          // no prefix: not a constraint
		{"x_" + otherArch + "_y.go", true}, // not a suffix
		{"gemm_noasm.go", true},
	}
	for _, c := range cases {
		if got := fileNameSatisfied(c.name); got != c.want {
			t.Errorf("fileNameSatisfied(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDiagnosticString pins the driver's output contract:
// file:line: analyzer: message.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "locklint", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 7
	if got, want := d.String(), "x.go:7: locklint: boom"; got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestLoadRejectsMissingModule pins the loader's failure mode outside a
// module.
func TestLoadRejectsMissingModule(t *testing.T) {
	if _, err := Load(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Load outside a module succeeded, want error")
	}
}

// ExampleDiagnostic demonstrates the one-line diagnostic format velavet
// prints.
func ExampleDiagnostic() {
	d := Diagnostic{Analyzer: "allocbound", Message: "make sized by wire-decoded value"}
	d.Pos.Filename = "wire.go"
	d.Pos.Line = 42
	fmt.Println(d)
	// Output: wire.go:42: allocbound: make sized by wire-decoded value
}
