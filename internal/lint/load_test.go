package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module for loader tests: a map of
// relative path → source, rooted in a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadSkipsBuildTagExcludedFiles pins that files gated behind
// optional tags are excluded from the analysis unit while their !tag
// counterparts load — the property that keeps race/non-race declaration
// pairs from colliding in the typechecker.
func TestLoadSkipsBuildTagExcludedFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module m\n\ngo 1.22\n",
		"x/a.go":      "package x\n\nfunc Plain() {}\n",
		"x/race.go":   "//go:build race\n\npackage x\n\nfunc OnlyUnderRace() {}\n",
		"x/norace.go": "//go:build !race\n\npackage x\n\nfunc NotRace() {}\n",
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (race-tagged file excluded)", len(p.Files))
	}
	if p.Types.Scope().Lookup("OnlyUnderRace") != nil {
		t.Error("race-tagged declaration leaked into the default-config unit")
	}
	if p.Types.Scope().Lookup("NotRace") == nil {
		t.Error("!race counterpart missing from the default-config unit")
	}
}

// TestLoadVisitsEachDirectoryOnce pins that a subdirectory sorting
// between two of its parent's files (internal/obs/timeline between
// rows.go and tracer.go) does not load the parent twice — which ran every
// analyzer over it twice and doubled its findings.
func TestLoadVisitsEachDirectoryOnce(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module m\n\ngo 1.22\n",
		"x/a.go":      "package x\n",
		"x/m/m.go":    "package m\n",
		"x/z.go":      "package x\n\nfunc Eq(a, b float64) bool { return a == b }\n",
		"x/z_test.go": "package x\n",
	})
	pkgs, err := Load(Config{Dir: dir, IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d units, want 2 (x, x/m)", len(pkgs))
	}
	if diags := Run(pkgs, []*Analyzer{FloatEq}); len(diags) != 1 {
		t.Errorf("got %d diagnostics, want the one floateq finding once: %v", len(diags), diags)
	}
}

// TestLoadAppliesFileNameConstraints pins go/build's file-name rule in
// the loader: of a _GOARCH pair declaring the same symbol with no
// //go:build line, only the host's file loads (both would collide in the
// typechecker), and the rule reaches through a _test suffix.
func TestLoadAppliesFileNameConstraints(t *testing.T) {
	other := "arm64"
	if runtime.GOARCH == other {
		other = "amd64"
	}
	otherOS := "plan9"
	if runtime.GOOS == otherOS {
		otherOS = "linux"
	}
	dir := writeModule(t, map[string]string{
		"go.mod":                           "module m\n\ngo 1.22\n",
		"x/a.go":                           "package x\n",
		"x/x_" + runtime.GOARCH + ".go":    "package x\n\nfunc Kernel() int { return 1 }\n",
		"x/x_" + other + ".go":             "package x\n\nfunc Kernel() int { return 2 }\n",
		"x/x_" + otherOS + "_test.go":      "package x\n\nfunc OnlyOnOtherOS() {}\n",
		"x/x_" + runtime.GOOS + "_test.go": "package x\n\nfunc OnHostOS() {}\n",
		"x/" + other + ".go":               "package x\n\nfunc BareNameIsNoConstraint() {}\n",
	})
	pkgs, err := Load(Config{Dir: dir, IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.TypeErrors) != 0 {
		t.Errorf("type errors (the _GOARCH pair collided?): %v", p.TypeErrors)
	}
	for name, want := range map[string]bool{"Kernel": true, "OnHostOS": true, "BareNameIsNoConstraint": true, "OnlyOnOtherOS": false} {
		if got := p.Types.Scope().Lookup(name) != nil; got != want {
			t.Errorf("%s loaded = %v, want %v", name, got, want)
		}
	}
}

// TestLoadSkipsNestedModules pins that a subdirectory with its own
// go.mod (this repo's bench/) is another module and stays out of the
// analysis, exactly as go's ./... pattern leaves it out of the build.
func TestLoadSkipsNestedModules(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":           "module m\n\ngo 1.22\n",
		"x/a.go":           "package x\n",
		"nested/go.mod":    "module m/nested\n\ngo 1.22\n",
		"nested/deep/c.go": "package deep\n",
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil || len(pkgs) != 1 || pkgs[0].Path != "m/x" {
		t.Fatalf("loaded %v (err %v), want only m/x", pkgs, err)
	}
}

// TestLoadPartialResultsOnTypeErrors pins that a package that fails to
// typecheck still yields an analysis unit — syntax, partial types, and
// the errors on the side — so one broken file cannot blind the whole
// gate, and analyzers can still run over it.
func TestLoadPartialResultsOnTypeErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module m\n\ngo 1.22\n",
		"broken/b.go": "package broken\n\nfunc f() int { return undefinedIdent }\n",
		"ok/ok.go":    "package ok\n\nfunc G() int { return 1 }\n",
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var broken *Package
	for _, p := range pkgs {
		if p.Name == "broken" {
			broken = p
		}
	}
	if broken == nil {
		t.Fatal("package with type errors was dropped from the load")
	}
	if len(broken.TypeErrors) == 0 {
		t.Error("expected recorded type errors, got none")
	}
	if len(broken.Files) != 1 || broken.Types == nil {
		t.Errorf("partial results missing: files=%d types=%v", len(broken.Files), broken.Types)
	}
	// The suite must still run over the partial unit without panicking.
	_ = Run(pkgs, Analyzers())
}

// TestRunDeterministicAcrossRepeatedLoads pins the ordering contract:
// repeated independent loads of the same tree produce byte-identical
// diagnostic streams (the property CI diffs and the fixture harness
// rely on).
func TestRunDeterministicAcrossRepeatedLoads(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc Spawn() {\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n}\n",
		"b/b.go": "package b\n\nfunc Spawn(ch chan int) {\n\tgo func() {\n\t\tfor range ch {\n\t\t}\n\t}()\n}\n",
	})
	var prev string
	for i := 0; i < 3; i++ {
		pkgs, err := Load(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, d := range Run(pkgs, Analyzers()) {
			lines = append(lines, d.String())
		}
		got := strings.Join(lines, "\n")
		if len(lines) != 2 {
			t.Fatalf("run %d: %d diagnostics, want 2:\n%s", i, len(lines), got)
		}
		if i > 0 && got != prev {
			t.Errorf("run %d diverged:\n%s\n---- previous:\n%s", i, got, prev)
		}
		prev = got
	}
}

// TestBareIgnoreDirectiveIsReported pins the reason-mandatory contract
// of the canonical suppression form: a bare //lint:ignore is itself a
// finding, never a silent suppression.
func TestBareIgnoreDirectiveIsReported(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"p/p.go": "package p\n\n//lint:ignore floateq\nfunc Eq(a, b float64) bool { return a == b }\n",
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{FloatEq})
	var bare, floateq bool
	for _, d := range diags {
		if d.Analyzer == "velavet" && strings.Contains(d.Message, "bare //lint:ignore") {
			bare = true
		}
		if d.Analyzer == "floateq" {
			floateq = true
		}
	}
	if !bare {
		t.Errorf("bare //lint:ignore not reported; got %v", diags)
	}
	if !floateq {
		t.Errorf("bare directive suppressed the finding it failed to justify; got %v", diags)
	}
}
