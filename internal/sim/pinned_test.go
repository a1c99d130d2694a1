package sim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// updateGolden rewrites testdata/pinned.digest from the current build.
// The file was captured on the parent of the one-cost-primitive refactor
// (commit eb90a49, RunVela dividing by bandwidths itself); rewriting it
// with a later build would defeat the test.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pinned.digest from this build")

const pinnedDigest = "testdata/pinned.digest"

// TestPinnedSim: RunAll at velabench's quick scale (60 steps) reproduces
// the parent commit's mean step time, mean traffic and total cross-node
// bytes for every strategy of the paper's four cells, bit for bit.
func TestPinnedSim(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("16 single-goroutine simulated runs: nothing for -race to find, and 20× the time")
	}
	if runtime.GOARCH != "amd64" {
		// The spec lets a compiler fuse x*y+z; arm64, ppc64le, s390x and
		// riscv64 do, and one differently rounded coefficient moves the LP.
		t.Skip("digest bits were captured on amd64, where Go never fuses multiply-add")
	}
	cfg := PaperConfig()
	cfg.Steps = 60
	fields := []string{"AvgStepSec", "AvgTrafficMB", "TotalCrossBytes"}
	type row struct {
		key  string
		vals [3]float64
	}
	var rows []row
	for _, profile := range workload.PaperProfiles() {
		results, err := RunAll(cfg, profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ep", "sequential", "random", "vela"} {
			r := results[name]
			rows = append(rows, row{profile.Name + ":" + name, [3]float64{r.AvgStepSec(), r.AvgTrafficMB(), r.TotalCrossBytes}})
		}
	}
	if *updateGolden {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%s %016x %016x %016x\n", r.key,
				math.Float64bits(r.vals[0]), math.Float64bits(r.vals[1]), math.Float64bits(r.vals[2]))
		}
		if err := os.WriteFile(pinnedDigest, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(pinnedDigest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("%s has %d rows, this build produces %d", pinnedDigest, len(lines), len(rows))
	}
	for i, got := range rows {
		var key string
		var bits [3]uint64
		if _, err := fmt.Sscanf(lines[i], "%s %x %x %x", &key, &bits[0], &bits[1], &bits[2]); err != nil {
			t.Fatalf("%s line %d: %v", pinnedDigest, i+1, err)
		}
		if key != got.key {
			t.Fatalf("row %d is %s, want %s", i+1, got.key, key)
		}
		for j, b := range bits {
			if want := math.Float64frombits(b); !testutil.BitEqual(got.vals[j], want) {
				t.Errorf("%s %s = %v, parent computed %v", key, fields[j], got.vals[j], want)
			}
		}
	}
}

// TestSimAgreesWithEvaluate: the simulator and the placement objective
// are one cost model. With the compute terms zeroed and a probability
// matrix that makes the step's sampled counts the exact expectation
// (P = counts/4096, R = 4096), one RunVela step's time is Evaluate's
// CommTime and its cross-node bytes are CrossNodeBytes, bit for bit — it
// fails the day Eq. 5–8 is spelled a second way.
func TestSimAgreesWithEvaluate(t *testing.T) {
	cfg := PaperConfig()
	cfg.Steps = 1
	cfg.TokensPerStep = 2048 // × top-2 = 4096 routings
	cfg.ExpertSecPerToken = 0
	cfg.BackboneSecPerStep = 0
	profile := workload.MixtralWikiText

	// The same profile and seed draw the same counts RunVela will see.
	counts := workload.NewGenerator(profile, cfg.RoutingsPerStep()).Step()
	P := make([][]float64, len(counts))
	for l, row := range counts {
		P[l] = make([]float64, len(row))
		for e, c := range row {
			P[l][e] = float64(c) / float64(cfg.RoutingsPerStep())
		}
	}
	prob := cfg.PlacementProblem(P)
	for _, s := range []placement.Strategy{placement.Sequential{}, placement.LocalityLP{}} {
		a, err := s.Place(prob)
		if err != nil {
			t.Fatal(err)
		}
		m, err := placement.Evaluate(prob, a)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunVela(cfg, workload.NewGenerator(profile, cfg.RoutingsPerStep()), a, s.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.StepSec.Values[0]; !testutil.BitEqual(got, m.CommTime) {
			t.Errorf("%s: simulated step %v s, Evaluate.CommTime %v s", s.Name(), got, m.CommTime)
		}
		if !testutil.BitEqual(r.TotalCrossBytes, m.CrossNodeBytes) {
			t.Errorf("%s: simulated cross-node bytes %v, Evaluate.CrossNodeBytes %v", s.Name(), r.TotalCrossBytes, m.CrossNodeBytes)
		}
	}
}
