package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// updateGolden rewrites testdata/flowfacts.digest, testdata/raw.golden
// and testdata/allocbound.golden from the current build and tree:
//
//	go test ./internal/lint -run 'Pinned|Census|Coverage' -update-golden
//
// flowfacts.digest describes the fixture corpus, so it moves only when an
// analyzer's contract (and with it a fixture) or the flow layer's walk
// does. raw.golden describes the real module's directives, so it moves
// when a directive is added or deleted; allocbound.golden, when a function
// allocbound checks by name is.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/flowfacts.digest, raw.golden and allocbound.golden from this build")

// skipLoad skips a test that typechecks a module and the standard library
// from source on one goroutine: nothing for -race to find, and 10× the
// time.
func skipLoad(t *testing.T) {
	t.Helper()
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("typechecks a module and the standard library from source")
	}
}

// realModule loads the enclosing module once for the tests that pin facts
// about the tree itself.
var realModule = sync.OnceValues(func() ([]*Package, error) {
	return Load(Config{Dir: ".", IncludeTests: true})
})

func loadRealModule(t *testing.T) []*Package {
	t.Helper()
	skipLoad(t)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the load honours build constraints; the pins are of the linux/amd64 file set")
	}
	pkgs, err := realModule()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// checkGolden compares got with testdata/<name> line by line, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(data) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs (%d lines now, %d pinned):\n got %q\nwant %q", path, i+1, len(gotLines), len(wantLines), g, w)
		}
	}
}

// TestPinnedFlowFacts pins what the flow layer's one body walk records,
// for every function of the analyzer fixture corpus (testdata/src/<name>,
// one module each, under a "module <name>" row): its key, the call edges
// into the module as (callee, in-go, lock-held) — an edge out of the
// module has no consumer, every summary skips it — the transport ops and
// deadline bounding deadlineflow reads, the lock-held blocking ops
// locklint reports, and the field accesses atomicpub keeps with their
// kind and lock context. Rows carry no line numbers (deleting a comment
// must not move them); calls are in source order, field accesses in
// position order. The corpus changes only when an analyzer's contract
// does, so an edit to the runtime's function bodies never re-pins this.
func TestPinnedFlowFacts(t *testing.T) {
	skipLoad(t)
	root := filepath.Join("testdata", "src")
	mods, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, m := range mods {
		pkgs, err := Load(Config{Dir: filepath.Join(root, m.Name()), IncludeTests: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "module %s\n", m.Name())
		writeFlowFacts(&b, buildProgram(pkgs))
	}
	checkGolden(t, "flowfacts.digest", b.String())
}

// writeFlowFacts writes TestPinnedFlowFacts's rows for every function of
// prog.
func writeFlowFacts(b *strings.Builder, prog *Program) {
	mark := func(on bool, s string) string {
		if on {
			return s
		}
		return "-"
	}
	for _, fi := range prog.functions() {
		fmt.Fprintf(b, "func %s", fi.Key)
		if fi.Test {
			b.WriteString(" test")
		}
		b.WriteString("\n")
		for _, c := range fi.Calls {
			if prog.funcs[c.Key] != nil {
				fmt.Fprintf(b, " call %s %s %s\n", c.Key, mark(c.InGo, "go"), mark(c.LockHeld, "lock"))
			}
		}
		for _, op := range fi.transportOps {
			fmt.Fprintf(b, " %s %s\n", strings.ToLower(op.Name), op.Recv)
		}
		if fi.boundsDeadline {
			b.WriteString(" bounds\n")
		}
		for _, op := range fi.lockedOps {
			fmt.Fprintf(b, " blocked %s holding %s\n", op.What, op.Lock)
		}
		byField := make(map[*types.Var][]fieldAccess)
		collectFieldAccesses(fi, byField, make(map[*types.Var]bool))
		type row struct {
			pos  token.Pos
			text string
		}
		var rows []row
		for field, accs := range byField {
			for _, a := range accs {
				kind := "r"
				if a.Write {
					kind = "w"
				}
				if a.Atomic {
					kind = "atomic"
				}
				rows = append(rows, row{a.Sel.Pos(), fmt.Sprintf(" field %s %s %s\n", field.Name(), kind, mark(a.LockHeld, "lock"))})
			}
		}
		// x.a.b and its operand x.a start at the same position.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].pos != rows[j].pos {
				return rows[i].pos < rows[j].pos
			}
			return rows[i].text < rows[j].text
		})
		for _, r := range rows {
			b.WriteString(r.text)
		}
	}
}

// TestSuppressionCensus is ROADMAP's "an analyzer suppressed that often
// is mis-scoped", checked by a machine. The tree may hold at most five
// //lint:ignore directives, and at most one per analyzer — goleak
// excepted: a process-lifetime goroutine is a design decision made once
// per pool or signal handler, not a finding to fix. An analyzer that needs
// more than that fires into suppressions; re-scope it by rule or retire
// it with its fixture. testdata/raw.golden is the other side of the same
// ledger: what velavet reports over the tree with every directive
// disabled, one line per directive and nothing else.
func TestSuppressionCensus(t *testing.T) {
	pkgs := loadRealModule(t)
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	perAnalyzer := make(map[string]int)
	total := 0
	for _, p := range pkgs {
		dirs, bare := scanDirectives(p)
		total += len(dirs) + len(bare)
		for _, d := range dirs {
			perAnalyzer[d.analyzer]++
		}
	}
	if total > 5 {
		t.Errorf("the tree holds %d //lint:ignore directives, want at most 5: %v", total, perAnalyzer)
	}
	for name, n := range perAnalyzer {
		if n > 1 && name != "goleak" {
			t.Errorf("%s is suppressed %d times, want at most 1: re-scope it by rule or retire it", name, n)
		}
	}

	// The raw run: the same load with its comments — so every directive —
	// taken away for the duration.
	for _, p := range pkgs {
		for _, f := range p.Files {
			comments := f.Comments
			f.Comments = nil
			defer func() { f.Comments = comments }()
		}
	}
	var raw strings.Builder
	for _, d := range Run(pkgs, Analyzers()) {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&raw, "%s: %s: %s\n", filepath.ToSlash(rel), d.Analyzer, d.Message)
	}
	checkGolden(t, "raw.golden", raw.String())
}

// knobStructs are the runtime configuration types TestKnobCensus holds to
// account, as (package path, type name).
var knobStructs = [][2]string{
	{"repro/internal/core", "Options"},
	{"repro/internal/broker", "Executor"},
	{"repro/internal/broker", "WorkerConfig"},
	{"repro/internal/broker", "SupervisorConfig"},
	{"repro/internal/replace", "Config"},
	{"repro/internal/obs", "Config"},
	{"repro/internal/checkpoint", "RunStore"},
	{"repro/internal/trainer", "Finetuner"},
}

// knobExempt names the knobs whose only writer lives outside this module,
// with why; each must stay a knob that nothing in the module sets.
var knobExempt = map[string]string{
	"broker.Executor.Coalesce": "only stepbench (bench/, a nested module the loader skips) sets it; ROADMAP 1(a) deletes the field with that write",
}

// TestKnobCensus is ROADMAP's knob census, checked by a machine like the
// suppression census: every exported field of basic kind — a number,
// bool, string, time.Duration or integer enum, or a pointer to one — of
// the knobStructs must be assigned, by a selector write or a
// composite-literal key, in some non-test file outside its declaring
// package: a deployment, a harness or an example. A knob only tests set
// is a constant with extra steps; delete it and its plumbing. Func-,
// interface- and struct-typed fields are hooks and test seams, out of
// scope.
func TestKnobCensus(t *testing.T) {
	pkgs := loadRealModule(t)
	fset := pkgs[0].Fset
	// Knobs by the position of their declaration: the declaring package's
	// own unit and its importers' view of it are typechecked apart, so
	// their *types.Var differ but their declarations do not.
	knobs := make(map[string]string)
	for _, ks := range knobStructs {
		var st *types.Struct
		for _, p := range pkgs {
			if p.Path == ks[0] && p.Types != nil && p.Types.Name() == p.Name {
				if obj := p.Types.Scope().Lookup(ks[1]); obj != nil {
					st, _ = obj.Type().Underlying().(*types.Struct)
				}
			}
		}
		if st == nil {
			t.Fatalf("%s.%s: no such struct in the module", ks[0], ks[1])
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			ft := f.Type()
			if p, ok := ft.(*types.Pointer); ok {
				ft = p.Elem()
			}
			if _, basic := ft.Underlying().(*types.Basic); f.Exported() && basic {
				knobs[fset.Position(f.Pos()).String()] = fmt.Sprintf("%s.%s.%s", f.Pkg().Name(), ks[1], f.Name())
			}
		}
	}

	set := make(map[string]bool)
	mark := func(p *Package, id *ast.Ident) {
		if f, ok := p.Info.Uses[id].(*types.Var); ok && f.IsField() && f.Pkg() != nil && f.Pkg().Path() != p.Path {
			if name, ok := knobs[fset.Position(f.Pos()).String()]; ok {
				set[name] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			if strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p, id)
							}
						}
					}
				}
				for _, e := range lhs {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						mark(p, sel.Sel)
					}
				}
				return true
			})
		}
	}

	var names []string
	for _, name := range knobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, exempt := knobExempt[name]
		switch {
		case exempt && set[name]:
			t.Errorf("%s is exempt but the module sets it: drop the exemption", name)
		case !exempt && !set[name]:
			t.Errorf("%s is set by no non-test file outside its package: make it a constant or delete it", name)
		}
	}
	for name := range knobExempt {
		if !slices.Contains(names, name) {
			t.Errorf("%s is exempt but no longer a knob: drop the exemption", name)
		}
	}
}

// TestAllocBoundCoverage pins which real-module functions allocbound's
// name-matched rules check, one "rule function" row each in
// testdata/allocbound.golden: its hot-path, obs-hook and wire lists match
// by bare name, so renaming or deleting a hot-path function would
// otherwise drop it from the lint without a word. It also holds every
// allocatingTensorMethods entry to a method the real tensor.Tensor has.
func TestAllocBoundCoverage(t *testing.T) {
	pkgs := loadRealModule(t)
	var rows []string
	for _, p := range pkgs {
		if !AllocBound.applies(p.Path) {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p.Fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, r := range nameRules {
					if (r.component == "" || hasComponent(p.Path, r.component)) && r.funcs[fd.Name.Name] {
						rows = append(rows, r.rule+" "+p.Info.Defs[fd.Name].(*types.Func).FullName())
					}
				}
			}
		}
	}
	sort.Strings(rows)
	checkGolden(t, "allocbound.golden", strings.Join(rows, "\n")+"\n")

	tensorType := lookupType(t, pkgs, "repro/internal/tensor", "Tensor")
	for name := range allocatingTensorMethods {
		if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tensorType), true, tensorType.Obj().Pkg(), name); obj == nil {
			t.Errorf("allocatingTensorMethods names %s, which tensor.Tensor does not have: drop the entry", name)
		}
	}
}

// lookupType returns the named type declared as name in the module
// package at path.
func lookupType(t *testing.T, pkgs []*Package, path, name string) *types.Named {
	t.Helper()
	for _, p := range pkgs {
		if p.Path == path && p.Types != nil && p.Types.Name() == p.Name {
			if obj, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok {
				return obj.Type().(*types.Named)
			}
		}
	}
	t.Fatalf("%s.%s: no such type in the module", path, name)
	return nil
}

// benchUnits typechecks bench/'s and bench/stepbench's non-test packages
// against the module once: bench/ is a nested module the load skips, and
// stepbench is a caller like cmd/.
var benchUnits = sync.OnceValues(func() ([]*Package, error) {
	root, module, err := findModule(".")
	if err != nil {
		return nil, err
	}
	var units []*Package
	l := newLoader(root, module)
	for _, dir := range []string{"bench", "bench/stepbench"} {
		u, err := l.analyze(module+"/"+dir, filepath.Join(root, dir), false)
		if err != nil {
			return nil, err
		}
		units = append(units, u...)
	}
	return units, nil
})

// callerPackages is every package whose references the censuses count:
// the real module's, tests included, and bench/'s non-test ones.
func callerPackages(t *testing.T, pkgs []*Package) []*Package {
	t.Helper()
	units, err := benchUnits()
	if err != nil {
		t.Fatal(err)
	}
	return append(slices.Clone(pkgs), units...)
}

// apiExempt names the exported API TestAPICensus lets stand without a
// caller outside its package, with why. A key is one or more
// space-separated names, each a package ("testutil"), a function
// ("tensor.Fanout"), a type, covering its methods ("transport.Faulty"),
// or a method ("broker.Executor.Rebalance"). Every name must cover a
// declaration that needs it.
var apiExempt = map[string]string{
	"testutil":                             "the tests' shared assertions and leak check: test code kept beside the packages it serves",
	"transport.NewFaulty transport.Faulty": "the fault-injecting Conn the chaos and fault-matrix tests wrap a link in",
	"tensor.ForEachTileBody":               "the seam through which the packages whose numerics rest on the products test every tile body",
	"tensor.SetParallelism tensor.SetParallelThreshold tensor.ParallelThreshold tensor.Parallelism": "the team's degree and cut-over, which the bit-identity and allocation tests pin and restore",
	"core.DeployEP core.EP": "the EP baseline's entry point, which TestEPMatchesOneMaster drives; no CLI runs EP yet",
	"moe.StabilityBound":    "Theorem 1's bound, which the stability tests check; its runtime caller is ROADMAP item 30",
	"transport.Copies transport.SetRecvDeadline transport.SetSendDeadline": "bench/'s wrapper test calls them, and bench/ does not change with the runtime; ROADMAP 1(a) deletes them with it",
	"broker.LocalDeployment.WaitAll":                                       "the fault matrix's and kill table's view of which in-process workers ended in error",
	"data.NewSwitchBatcher data.SwitchBatcher":                             "the distribution shift TestShiftReplacesOnce trains through",
}

// TestAPICensus is ROADMAP's API census, checked by a machine: every
// exported function, and every exported method of an exported type,
// declared in a non-test file under internal/ must be referenced by a
// non-test file outside its package (cmd/, examples/ and bench/ count),
// implement a method of an interface the module declares or imports, or
// be exempt by apiExempt. An export only tests call is dead code with a
// test attached: delete it and port the test to the behaviour's real
// entry point. One only its own package calls is unexported, unless
// another package's tests call it too, or it is one of the names
// allocbound's rules match on (renaming those would drop them from the
// lint).
func TestAPICensus(t *testing.T) {
	pkgs := loadRealModule(t)
	fset := pkgs[0].Fset
	type decl struct {
		pkg  *Package
		fn   *types.Func
		name string // pkg.Func or pkg.Type.Method
		typ  string // pkg.Type for a method
	}
	decls := make(map[string]*decl) // by declaration position
	var order []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") || p.Types == nil || p.Types.Name() != p.Name {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				dl := &decl{pkg: p, fn: fn, name: p.Name + "." + fd.Name.Name}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named, ok := deref(recv.Type()).(*types.Named)
					if !ok || !named.Obj().Exported() {
						continue
					}
					dl.typ = p.Name + "." + named.Obj().Name()
					dl.name = dl.typ + "." + fd.Name.Name
				}
				pos := fset.Position(fn.Pos()).String()
				decls[pos] = dl
				order = append(order, pos)
			}
		}
	}

	// References, by where they come from.
	outside, inside, tests, testsOutside := make(map[string]bool), make(map[string]bool), make(map[string]bool), make(map[string]bool)
	for _, p := range callerPackages(t, pkgs) {
		for _, f := range p.Files {
			test := isTestFile(p.Fset, f.Pos())
			for id, obj := range p.Info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok || id.Pos() < f.Pos() || id.Pos() > f.End() {
					continue
				}
				pos := p.Fset.Position(fn.Origin().Pos()).String()
				dl := decls[pos]
				switch {
				case dl == nil:
				case test:
					tests[pos] = true
					testsOutside[pos] = testsOutside[pos] || p.Path != dl.pkg.Path
				case p.Path != dl.pkg.Path:
					outside[pos] = true
				default:
					inside[pos] = true
				}
			}
		}
	}

	implements := interfaceMethods(pkgs)
	analyzerName := func(dl *decl) bool {
		for _, r := range nameRules {
			if (r.component == "" || hasComponent(dl.pkg.Path, r.component)) && r.funcs[dl.fn.Name()] {
				return true
			}
		}
		return false
	}
	exemptBy := func(dl *decl) string {
		for key := range apiExempt {
			for _, name := range strings.Fields(key) {
				if name == dl.pkg.Name || name == dl.name || name == dl.typ {
					return name
				}
			}
		}
		return ""
	}

	used := make(map[string]bool)
	for _, pos := range order {
		dl := decls[pos]
		if outside[pos] || dl.typ != "" && implements(dl.pkg.Path, strings.TrimPrefix(dl.typ, dl.pkg.Name+"."), dl.fn.Name()) || inside[pos] && analyzerName(dl) {
			continue
		}
		if name := exemptBy(dl); name != "" {
			used[name] = true
			continue
		}
		switch {
		case inside[pos] && testsOutside[pos]:
			// Live code another package's tests reach: unexporting it
			// would only copy it into those tests.
		case inside[pos]:
			t.Errorf("%s (%s) is called only inside its package: unexport it", dl.name, pos)
		case tests[pos]:
			t.Errorf("%s (%s) is called only by tests: delete it and port them to its real entry point", dl.name, pos)
		default:
			t.Errorf("%s (%s) is referenced nowhere: delete it", dl.name, pos)
		}
	}
	if len(apiExempt) > 12 {
		t.Errorf("%d exemption entries, want at most 12", len(apiExempt))
	}
	for key, reason := range apiExempt {
		if reason == "" {
			t.Errorf("exemption %q has no reason", key)
		}
		for _, name := range strings.Fields(key) {
			if !used[name] {
				t.Errorf("exemption %s covers nothing that needs it: drop it", name)
			}
		}
	}
}

// TestUnexportedCensus is the API census's other half: every unexported
// function and method declared in a non-test file of the module must be
// referenced by a non-test file of its package, from outside its own
// body, or implement a method of an interface (see interfaceMethods).
// One only tests call is test code: it moves into the tests that call it.
// main and init are called by the runtime.
func TestUnexportedCensus(t *testing.T) {
	pkgs := loadRealModule(t)
	fset := pkgs[0].Fset
	implements := interfaceMethods(pkgs)
	type decl struct {
		pkg  *Package
		fn   *types.Func
		name string // pkg.func or pkg.Type.method
		typ  string // the receiver's type name for a method
	}
	decls := make(map[string]*decl) // by declaration position
	var order []string
	referenced := make(map[string]bool)
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.Info.Defs[fd.Name].(*types.Func)
					self = fset.Position(fn.Pos()).String()
					if name := fd.Name.Name; !fd.Name.IsExported() && decls[self] == nil &&
						!(fd.Recv == nil && (name == "init" || name == "main" && p.Name == "main")) {
						dl := &decl{pkg: p, fn: fn, name: p.Name + "." + name}
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if named, ok := deref(recv.Type()).(*types.Named); ok {
								dl.typ = named.Obj().Name()
								dl.name = p.Name + "." + dl.typ + "." + name
							}
						}
						decls[self] = dl
						order = append(order, self)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok {
							if pos := fset.Position(fn.Origin().Pos()).String(); pos != self {
								referenced[pos] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	if len(order) == 0 {
		t.Fatal("found no unexported function")
	}
	for _, pos := range order {
		dl := decls[pos]
		if !referenced[pos] && (dl.typ == "" || !implements(dl.pkg.Path, dl.typ, dl.fn.Name())) {
			t.Errorf("%s (%s) has no non-test reference in its package: delete it, or move it into the tests that call it", dl.name, pos)
		}
	}
}

// interfaceMethods returns whether a method of the named type of a
// package implements a method of an interface: one of every non-test
// named interface of the module and of the packages it imports, or error.
func interfaceMethods(pkgs []*Package) func(pkgPath, typeName, method string) bool {
	fset := pkgs[0].Fset
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			obj, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || isTestFile(fset, obj.Pos()) {
				continue
			}
			if named, ok := obj.Type().(*types.Named); ok && named.TypeParams() == nil {
				if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// A package's own unit and its importers' view of it are typechecked
	// apart; an interface declared by an importer names the latter's
	// types, so a method is tried under both.
	views := make(map[string][]*types.Package)
	for tp := range seen {
		views[tp.Path()] = append(views[tp.Path()], tp)
	}
	return func(pkgPath, typeName, method string) bool {
		for _, tp := range views[pkgPath] {
			obj, ok := tp.Scope().Lookup(typeName).(*types.TypeName)
			if !ok {
				continue
			}
			for _, it := range ifaces {
				if m, _, _ := types.LookupFieldOrMethod(it, false, tp, method); m != nil &&
					(types.Implements(obj.Type(), it) || types.Implements(types.NewPointer(obj.Type()), it)) {
					return true
				}
			}
		}
		return false
	}
}

// msgExempt names the wire.MsgType constants TestMessageCensus lets stand
// without a reference outside internal/wire, with why.
var msgExempt = map[string]string{
	"MsgForward": "an alias of MsgForwardMulti that only bench/'s shaped-link test names; it goes with that test's next edit",
}

// TestMessageCensus: every wire.MsgType constant is referenced by a
// non-test file outside internal/wire (cmd/, examples/ and bench/ count)
// or exempt by msgExempt. A message type only tests send is a protocol
// round with a test attached: delete it with its handler and port the
// tests to the rounds the runtime drives.
func TestMessageCensus(t *testing.T) {
	pkgs := loadRealModule(t)
	const wirePath = "repro/internal/wire"
	consts := make(map[string]string) // declaration position by name
	for _, p := range pkgs {
		if p.Path != wirePath || p.Types == nil || p.Types.Name() != p.Name {
			continue
		}
		msgType := p.Types.Scope().Lookup("MsgType")
		for _, name := range p.Types.Scope().Names() {
			if c, ok := p.Types.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), msgType.Type()) {
				consts[name] = p.Fset.Position(c.Pos()).String()
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("found no wire.MsgType constant")
	}
	referenced := make(map[string]bool)
	for _, p := range callerPackages(t, pkgs) {
		if p.Path == wirePath {
			continue
		}
		for id, obj := range p.Info.Uses {
			if c, ok := obj.(*types.Const); ok && !isTestFile(p.Fset, id.Pos()) {
				referenced[p.Fset.Position(c.Pos()).String()] = true
			}
		}
	}
	for name, pos := range consts {
		_, exempt := msgExempt[name]
		switch {
		case referenced[pos] && exempt:
			t.Errorf("wire.%s is referenced outside internal/wire: drop its exemption", name)
		case !referenced[pos] && !exempt:
			t.Errorf("wire.%s (%s) is referenced by no non-test file outside internal/wire: delete it and the round it names", name, pos)
		}
	}
	for name := range msgExempt {
		if _, ok := consts[name]; !ok {
			t.Errorf("exemption %s names no wire.MsgType constant: drop it", name)
		}
	}
}
