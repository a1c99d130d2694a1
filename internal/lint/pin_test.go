package lint

import (
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// updateGolden rewrites testdata/flowfacts.digest and testdata/raw.golden
// from the current build and tree:
//
//	go test ./internal/lint -run 'Pinned|Census' -update-golden
//
// Both files describe the real module, so any PR that edits a function
// body or a directive re-pins them; the diff must then name only what the
// PR touched. A row that moves in a function nobody edited means the
// flow layer's walk changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/flowfacts.digest and testdata/raw.golden from this build")

// realModule loads the enclosing module once for the tests that pin facts
// about the tree itself.
var realModule = sync.OnceValues(func() ([]*Package, error) {
	return Load(Config{Dir: ".", IncludeTests: true})
})

func loadRealModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("typechecks the whole module on one goroutine: nothing for -race to find, and 10× the time")
	}
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
// for every function of the real module: its key, the call edges into
// the module as (callee, in-go, lock-held) — an edge out of the module
// has no consumer, every summary skips it — the transport ops and
// deadline bounding deadlineflow reads, the lock-held blocking ops
// locklint reports, and the field accesses atomicpub keeps with their
// kind and lock context. Rows carry no line numbers (deleting a comment
// must not move them); calls are in source order, field accesses in
// position order. The file was captured on the commit before the three
// statement walkers became one, through all three; the one walker
// reproduces it plus the call edges inside `x[f()]++` statements, which
// only one of the three used to walk (EXPERIMENTS.md "PR 30").
func TestPinnedFlowFacts(t *testing.T) {
	prog := BuildProgram(loadRealModule(t))
	var b strings.Builder
	mark := func(on bool, s string) string {
		if on {
			return s
		}
		return "-"
	}
	for _, fi := range prog.Functions() {
		if fi.Pkg.Path == "repro/internal/lint" || fi.Pkg.Path == "repro/cmd/velavet" {
			continue // the walker's own source is not a fixed point of rewriting it
		}
		fmt.Fprintf(&b, "func %s", fi.Key)
		if fi.Test {
			b.WriteString(" test")
		}
		b.WriteString("\n")
		for _, c := range fi.Calls {
			if prog.funcs[c.Key] != nil {
				fmt.Fprintf(&b, " call %s %s %s\n", c.Key, mark(c.InGo, "go"), mark(c.LockHeld, "lock"))
			}
		}
		for _, op := range fi.transportOps {
			fmt.Fprintf(&b, " %s %s\n", strings.ToLower(op.Name), op.Recv)
		}
		if fi.boundsDeadline {
			b.WriteString(" bounds\n")
		}
		for _, op := range fi.lockedOps {
			fmt.Fprintf(&b, " blocked %s holding %s\n", op.What, op.Lock)
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
	checkGolden(t, "flowfacts.digest", b.String())
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
