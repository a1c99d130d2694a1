// Command velavet is VELA's domain-specific static-analysis gate: a
// standard-library-only driver (go/parser + go/types with a source
// importer, so it runs offline) over the analyzer suite in
// internal/lint — `velavet -list` prints each analyzer with its
// invariant and scope; DESIGN.md §10 has the rule that scopes each.
//
// Usage:
//
//	velavet [-list] [-dir DIR] [packages]
//
// Package arguments filter which analysis units report: each argument
// matches import paths by suffix, go-tool style ("./internal/broker",
// "repro/internal/broker" and "broker" all select the broker package),
// and "./..." or no arguments selects everything. The whole module
// enclosing -dir (default ".") is still loaded and typechecked — the
// call-graph layer needs every package — only reporting is filtered.
//
// Diagnostics print as file:line: analyzer: message. A directive that
// is reasonless or suppresses nothing is a diagnostic too (analyzer
// "velavet"). The exit status is 1 when anything is reported, 2 on a
// driver failure; a clean run prints nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list analyzers and exit")
		dir  = flag.String("dir", ".", "directory inside the module to analyze")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			scope := "all packages"
			if len(a.Components) > 0 {
				scope = fmt.Sprintf("packages with a %v path component", a.Components)
			}
			fmt.Printf("%-13s %s (%s)\n", a.Name, a.Doc, scope)
		}
		return
	}

	pkgs, err := lint.Load(lint.Config{Dir: *dir, IncludeTests: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "velavet: %v\n", err)
		os.Exit(2)
	}

	// The whole module is analyzed regardless of the package arguments —
	// the call-graph layer needs every function — but only diagnostics
	// landing in a selected package's directory are reported.
	keep := packageFilter(flag.Args())
	selDirs := make(map[string]bool)
	broken := false
	for _, p := range pkgs {
		if !keep(p.Path) {
			continue
		}
		if len(p.Files) > 0 {
			selDirs[filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)] = true
		}
		// Surface typecheck failures: analyzers run on best-effort type
		// information, but a package that does not typecheck is itself a
		// finding (and explains any odd diagnostics that follow).
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "velavet: typecheck %s: %v\n", p.Path, terr)
			broken = true
		}
	}
	if len(selDirs) == 0 {
		fmt.Fprintf(os.Stderr, "velavet: no packages match %v\n", flag.Args())
		os.Exit(2)
	}

	all := lint.Run(pkgs, lint.Analyzers())
	diags := all[:0]
	for _, d := range all {
		if selDirs[filepath.Dir(d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "velavet: %d finding(s)\n", len(diags))
	}
	if len(diags) > 0 || broken {
		os.Exit(1)
	}
}

// packageFilter builds the import-path predicate from the command-line
// package arguments. Arguments match go-tool style: "./..." (or none)
// selects everything, otherwise an argument selects packages whose
// import path equals it or ends in "/"+arg, after stripping any "./"
// prefix and "/..." suffix (a "/..." argument selects the whole subtree
// under the remaining prefix).
func packageFilter(args []string) func(string) bool {
	type pattern struct {
		path    string
		subtree bool
	}
	var pats []pattern
	for _, a := range args {
		a = strings.TrimPrefix(a, "./")
		sub := false
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			a, sub = rest, true
		}
		a = strings.Trim(a, "/")
		if a == "..." || a == "" {
			return func(string) bool { return true }
		}
		pats = append(pats, pattern{path: a, subtree: sub})
	}
	if len(pats) == 0 {
		return func(string) bool { return true }
	}
	return func(path string) bool {
		for _, p := range pats {
			if path == p.path || strings.HasSuffix(path, "/"+p.path) {
				return true
			}
			if p.subtree && (strings.Contains(path, "/"+p.path+"/") || strings.HasPrefix(path, p.path+"/")) {
				return true
			}
		}
		return false
	}
}
