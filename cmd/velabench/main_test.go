package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// checkFigGolden runs `velabench -fig fig` at quick scale and compares
// what it prints with testdata/<fig>.golden.
func checkFigGolden(t *testing.T, fig string) {
	t.Helper()
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("single-goroutine simulations and LP solves: nothing for -race to find, and 20× the time")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden was captured on amd64; a fused multiply-add can move the LP to another vertex")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), fig+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run(fig, experiments.Quick, false)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", fig+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("velabench -fig %s printed:\n%s\nwant:\n%s", fig, got, want)
	}
}

// TestDriftMatchesGolden pins `velabench -fig drift` at quick scale. The
// golden is the parent commit's output with one line changed by intent:
// its "advisor:" line (a second decision function, which recommended a
// re-solve that was 3.06% worse) became the controller's verdict on the
// same input. Everything else — the simulated traffic, the LP's assignment
// behind the move count — is the parent's, digit for digit.
func TestDriftMatchesGolden(t *testing.T) { checkFigGolden(t, "drift") }

// TestPlaceMatchesGolden pins `velabench -fig place`. Below its title
// line, the golden is what the placement example this figure replaced
// printed on the commit before, run over all four paper profiles (it
// printed the two Mixtral ones): every strategy's expected comm time and
// cross-node megabytes, and the LP's routing mass per node.
func TestPlaceMatchesGolden(t *testing.T) { checkFigGolden(t, "place") }

// TestFiguresMatchGolden pins every quick-scale figure of the paper's
// evaluation: Fig. 3 and Theorem 1 on the live model, Figs. 5–6 from the
// simulator, Fig. 7's heat maps and the §V in-text quantities. Each golden
// is the output of `velabench -fig F` on the commit before it was pinned.
func TestFiguresMatchGolden(t *testing.T) {
	for _, fig := range paperFigs {
		t.Run(fig, func(t *testing.T) { checkFigGolden(t, fig) })
	}
}

func TestWriteCSV(t *testing.T) {
	a := &obs.Series{Name: "step", Values: []float64{1, 2, 3}}
	b := &obs.Series{Name: "mb", Values: []float64{8.5, 9.25}}
	var sb strings.Builder
	if err := writeCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "step,mb\n1,8.5\n2,9.25\n3,\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
	var empty strings.Builder
	if err := writeCSV(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "" {
		t.Fatal("no series must write nothing")
	}
}
