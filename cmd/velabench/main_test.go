package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/testutil"
)

// TestDriftMatchesGolden pins `velabench -fig drift` at quick scale. The
// golden is the parent commit's output with one line changed by intent:
// its "advisor:" line (a second decision function, which recommended a
// re-solve that was 3.06% worse) became the controller's verdict on the
// same input. Everything else — the simulated traffic, the LP's assignment
// behind the move count — is the parent's, digit for digit.
func TestDriftMatchesGolden(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("one single-goroutine simulated run: nothing for -race to find, and 20× the time")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden was captured on amd64; a fused multiply-add can move the LP to another vertex")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "drift.txt"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run("drift", experiments.Quick, false)
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
	want, err := os.ReadFile("testdata/drift.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("velabench -fig drift printed:\n%s\nwant:\n%s", got, want)
	}
}
