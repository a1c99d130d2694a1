package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one analyzed package: its syntax (including in-package
// _test.go files when Config.IncludeTests is set), its typechecked
// types.Package, and the full types.Info the analyzers consult.
type Package struct {
	// Path is the import path ("repro/internal/wire").
	Path string
	// Name is the package name ("wire"). Test-only directories (a dir
	// holding nothing but _test.go files) surface under their test
	// package name.
	Name string
	// Files holds every parsed file of the analysis unit.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info carries type, object and selection facts for Files.
	Info *types.Info
	// Fset positions Files (shared across the whole load).
	Fset *token.FileSet
	// TypeErrors records non-fatal typecheck problems. Analysis still
	// runs on a package with type errors, but the driver reports them.
	TypeErrors []error
}

// Config configures a Load.
type Config struct {
	// Dir is any directory inside the target module; Load ascends to the
	// enclosing go.mod.
	Dir string
	// IncludeTests folds in-package _test.go files into each analysis
	// unit and analyzes test-only packages.
	IncludeTests bool
}

// Load locates the module enclosing cfg.Dir, parses and typechecks every
// package under it (skipping testdata, vendor and hidden directories),
// and returns the analysis units in deterministic path order.
//
// Typechecking is pure standard library: module-internal imports resolve
// against the walked tree, everything else (the standard library) through
// go/importer's source importer, so the load works offline.
func Load(cfg Config) ([]*Package, error) {
	root, module, err := findModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, module)
	var out []*Package
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkgs, err := l.analyze(path, dir, cfg.IncludeTests)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// findModule ascends from dir to the first go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs walks root collecting every directory that holds at least
// one .go file, skipping hidden directories, testdata and vendor trees,
// and nested modules (a subdirectory with its own go.mod — bench/ — is
// not part of this module; go's ./... stops there too).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			// A subdirectory sorting between two files (obs/timeline/
			// between rows.go and tracer.go) splits the directory's run.
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// loader typechecks module packages, memoizing the pure (test-free)
// variant of each so imports resolve exactly once.
type loader struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.ImporterFrom
	pure   map[string]*types.Package
	active map[string]bool // import-cycle guard
}

func newLoader(root, module string) *loader {
	return &loader{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		std:    importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		pure:   make(map[string]*types.Package),
		active: make(map[string]bool),
	}
}

// Import implements types.Importer for the typechecker: module-internal
// paths load from the walked tree, everything else from the standard
// library source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.loadPure(path)
	}
	return l.std.ImportFrom(path, l.root, 0)
}

// dirOf maps a module import path to its directory.
func (l *loader) dirOf(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// loadPure typechecks the non-test files of a module package (the
// variant other packages import).
func (l *loader) loadPure(path string) (*types.Package, error) {
	if pkg, ok := l.pure[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	files, err := l.parseDir(l.dirOf(path), false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", path)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.pure[path] = pkg
	return pkg, nil
}

// parseDir parses the .go files of dir (test files only when withTests),
// in deterministic name order, with comments retained for the
// suppression scanner.
func (l *loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !fileNameSatisfied(name) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildConstraintSatisfied reports whether the file's //go:build line (if
// any) holds in the default build configuration: host GOOS/GOARCH and no
// optional tags. Without this, tag-paired files (e.g. `race` / `!race`
// variants of a declaration) would both load and collide in the
// typechecker. Only the canonical //go:build form is evaluated; legacy
// // +build lines are ignored, matching what gofmt keeps in sync anyway.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(hostTag)
		}
	}
	return true
}

// hostTag reports whether a build tag holds in the default build
// configuration: host GOOS/GOARCH, no optional tags.
func hostTag(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "unix" && runtime.GOOS == "linux"
}

// The GOOS and GOARCH values a file name can imply (go/build's syslist).
var (
	knownOS   = tagSet("aix android darwin dragonfly freebsd hurd illumos ios js linux nacl netbsd openbsd plan9 solaris wasip1 windows zos")
	knownArch = tagSet("386 amd64 amd64p32 arm armbe arm64 arm64be loong64 mips mipsle mips64 mips64le mips64p32 mips64p32le ppc ppc64 ppc64le riscv riscv64 s390 s390x sparc sparc64 wasm")
)

func tagSet(list string) map[string]bool {
	set := make(map[string]bool)
	for _, tag := range strings.Fields(list) {
		set[tag] = true
	}
	return set
}

// fileNameSatisfied applies go/build's file-name rule: after an optional
// _test, a name ending _GOOS, _GOARCH or _GOOS_GOARCH carries those tags
// as if by a //go:build line (x_arm64.go, x_linux_test.go). Without it a
// kernel_amd64.go / kernel_arm64.go pair that relies on its names alone
// would both load and collide in the typechecker. As in go/build, the
// rule needs a non-empty prefix: linux.go is an ordinary file.
func fileNameSatisfied(name string) bool {
	name = strings.TrimSuffix(strings.TrimSuffix(name, ".go"), "_test")
	_, rest, ok := strings.Cut(name, "_")
	if !ok {
		return true
	}
	l := strings.Split(rest, "_")
	n := len(l)
	if n >= 2 && knownOS[l[n-2]] && knownArch[l[n-1]] {
		return hostTag(l[n-2]) && hostTag(l[n-1])
	}
	if knownOS[l[n-1]] || knownArch[l[n-1]] {
		return hostTag(l[n-1])
	}
	return true
}

// analyze builds the analysis units of one directory: the package itself
// augmented with its in-package test files, plus (when present) the
// external <name>_test package as its own unit.
func (l *loader) analyze(path, dir string, includeTests bool) ([]*Package, error) {
	files, err := l.parseDir(dir, includeTests)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	// Group files by declared package name: the base package (plus its
	// in-package tests) and, optionally, an external _test package.
	groups := make(map[string][]*ast.File)
	var order []string
	for _, f := range files {
		name := f.Name.Name
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], f)
	}
	sort.Strings(order)
	var out []*Package
	for _, name := range order {
		unit := groups[name]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		var typeErrs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(path, l.fset, unit, info)
		out = append(out, &Package{
			Path:       path,
			Name:       name,
			Files:      unit,
			Types:      tpkg,
			Info:       info,
			Fset:       l.fset,
			TypeErrors: typeErrs,
		})
	}
	return out, nil
}
