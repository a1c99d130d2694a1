package sim

import (
	"math"
	"testing"

	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func shortConfig() Config {
	cfg := PaperConfig()
	cfg.Steps = 25
	return cfg
}

func TestPaperConfigValid(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Layers != 32 || cfg.Experts != 8 || cfg.TopK != 2 {
		t.Fatalf("geometry drifted from Mixtral: %+v", cfg)
	}
	if !testutil.Close(cfg.BytesPerToken(), 8192) {
		t.Fatalf("bytes/token = %v, want 8192 (H=4096 at 16-bit)", cfg.BytesPerToken())
	}
	if cfg.RoutingsPerStep() != cfg.TokensPerStep*2 {
		t.Fatal("routings per step wrong")
	}
}

func TestConfigValidateRejectsBadInputs(t *testing.T) {
	cfg := PaperConfig()
	cfg.TopK = 9
	if cfg.validate() == nil {
		t.Fatal("TopK > Experts must fail")
	}
	cfg = PaperConfig()
	cfg.Steps = 0
	if cfg.validate() == nil {
		t.Fatal("zero steps must fail")
	}
}

func TestRunVelaDeterministic(t *testing.T) {
	cfg := shortConfig()
	cfg.Steps = 5
	prob := cfg.PlacementProblem(workload.MixtralWikiText.Matrix())
	a, err := placement.Sequential{}.Place(prob)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunVela(cfg, workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep()), a, "seq")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunVela(cfg, workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep()), a, "seq")
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.TrafficMB.Values {
		if !testutil.BitEqual(r1.TrafficMB.Values[i], r2.TrafficMB.Values[i]) {
			t.Fatal("simulation must be deterministic")
		}
	}
	if r1.TrafficMB.Len() != 5 || r1.StepSec.Len() != 5 {
		t.Fatal("series length wrong")
	}
}

// TestFig5Shape verifies the qualitative content of Fig. 5 on every
// (model × dataset) cell: VELA's locality-aware placement has the lowest
// external traffic, the three baselines are roughly equal, and the
// reduction against EP falls in (or near) the paper's measured bands.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep in -short mode")
	}
	cfg := shortConfig()
	type band struct{ lo, hi float64 }
	// Paper: 18.1–25.3% on WikiText, 17.3–20.1% on Alpaca. We allow ±3
	// percentage points of slack around the measured bands.
	bands := map[string]band{
		"mixtral-wikitext": {0.15, 0.28},
		"mixtral-alpaca":   {0.14, 0.23},
		"gritlm-wikitext":  {0.15, 0.28},
		"gritlm-alpaca":    {0.14, 0.235},
	}
	for _, p := range workload.PaperProfiles() {
		res, err := RunAll(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		ep, seq, rnd, vela := res["ep"], res["sequential"], res["random"], res["vela"]
		// VELA lowest.
		for _, other := range []*Result{ep, seq, rnd} {
			if vela.AvgTrafficMB() >= other.AvgTrafficMB() {
				t.Fatalf("%s: vela %.0f MB not below %s %.0f MB", p.Name, vela.AvgTrafficMB(), other.Strategy, other.AvgTrafficMB())
			}
		}
		// Baselines roughly equal (within 12%).
		base := ep.AvgTrafficMB()
		for _, other := range []*Result{seq, rnd} {
			if math.Abs(other.AvgTrafficMB()-base)/base > 0.12 {
				t.Fatalf("%s: baseline %s %.0f deviates from EP %.0f", p.Name, other.Strategy, other.AvgTrafficMB(), base)
			}
		}
		red := (ep.AvgTrafficMB() - vela.AvgTrafficMB()) / ep.AvgTrafficMB()
		b := bands[p.Name]
		if red < b.lo || red > b.hi {
			t.Fatalf("%s: traffic reduction %.1f%% outside band [%.0f%%, %.0f%%]", p.Name, red*100, b.lo*100, b.hi*100)
		}
	}
}

// TestFig6Shape verifies Fig. 6: EP is the slowest (synchronized
// all-to-all), sequential and random run faster within VELA's framework,
// and the locality-aware placement is fastest with a speedup near the
// paper's 20.6–28.2%.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep in -short mode")
	}
	cfg := shortConfig()
	for _, p := range workload.PaperProfiles() {
		res, err := RunAll(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		ep, seq, rnd, vela := res["ep"], res["sequential"], res["random"], res["vela"]
		if seq.AvgStepSec() >= ep.AvgStepSec() {
			t.Fatalf("%s: sequential (%.2fs) must beat EP (%.2fs)", p.Name, seq.AvgStepSec(), ep.AvgStepSec())
		}
		if rnd.AvgStepSec() >= ep.AvgStepSec() {
			t.Fatalf("%s: random (%.2fs) must beat EP (%.2fs)", p.Name, rnd.AvgStepSec(), ep.AvgStepSec())
		}
		for _, other := range []*Result{ep, seq, rnd} {
			if vela.AvgStepSec() >= other.AvgStepSec() {
				t.Fatalf("%s: vela (%.2fs) must be fastest (vs %s %.2fs)", p.Name, vela.AvgStepSec(), other.Strategy, other.AvgStepSec())
			}
		}
		speedup := (ep.AvgStepSec() - vela.AvgStepSec()) / ep.AvgStepSec()
		if speedup < 0.17 || speedup > 0.33 {
			t.Fatalf("%s: speedup %.1f%% outside the paper's regime", p.Name, speedup*100)
		}
	}
}

// TestBaselineTrafficMagnitude pins the in-text figure: roughly 866 MB of
// external traffic per node per step for the baselines.
func TestBaselineTrafficMagnitude(t *testing.T) {
	cfg := shortConfig()
	gen := workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep())
	ep, err := runEP(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	avg := ep.AvgTrafficMB()
	if avg < 700 || avg > 1000 {
		t.Fatalf("EP baseline %.0f MB/node/step, want ≈866 MB (700–1000)", avg)
	}
}

// TestVelaTrafficStableOverSteps mirrors the Fig. 5 stability claim:
// VELA's advantage persists across the run; the drift may raise traffic
// slightly but never erases the gap.
func TestVelaTrafficStableOverSteps(t *testing.T) {
	cfg := PaperConfig()
	cfg.Steps = 120
	prob := cfg.PlacementProblem(workload.MixtralWikiText.Matrix())
	lp, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		t.Fatal(err)
	}
	seqA, err := placement.Sequential{}.Place(prob)
	if err != nil {
		t.Fatal(err)
	}
	vela, err := RunVela(cfg, workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep()), lp, "vela")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunVela(cfg, workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep()), seqA, "seq")
	if err != nil {
		t.Fatal(err)
	}
	// Every single step must keep vela below sequential.
	for i := range vela.TrafficMB.Values {
		if vela.TrafficMB.Values[i] >= seq.TrafficMB.Values[i] {
			t.Fatalf("step %d: vela %.0f MB not below sequential %.0f MB", i, vela.TrafficMB.Values[i], seq.TrafficMB.Values[i])
		}
	}
}

func TestEPLayoutUsedByEPSim(t *testing.T) {
	// The EP simulator's cross-node traffic must be independent of expert
	// popularity: permuting which experts are popular must not change
	// expected traffic materially (tokens are sharded uniformly).
	cfg := shortConfig()
	cfg.Steps = 10
	a := workload.Profile{Name: "a", Layers: 32, Experts: 8, SigmaBase: 2.0, Seed: 1}
	b := workload.Profile{Name: "b", Layers: 32, Experts: 8, SigmaBase: 2.0, Seed: 99}
	ra, err := runEP(cfg, workload.NewGenerator(a, cfg.RoutingsPerStep()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runEP(cfg, workload.NewGenerator(b, cfg.RoutingsPerStep()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra.AvgTrafficMB()-rb.AvgTrafficMB())/ra.AvgTrafficMB() > 0.02 {
		t.Fatalf("EP traffic must not depend on which experts are popular: %.1f vs %.1f", ra.AvgTrafficMB(), rb.AvgTrafficMB())
	}
}

func TestTotalCrossBytesConsistent(t *testing.T) {
	cfg := shortConfig()
	cfg.Steps = 8
	prob := cfg.PlacementProblem(workload.MixtralAlpaca.Matrix())
	a, err := placement.Sequential{}.Place(prob)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunVela(cfg, workload.NewGenerator(workload.MixtralAlpaca, cfg.RoutingsPerStep()), a, "seq")
	if err != nil {
		t.Fatal(err)
	}
	var fromSeries float64
	for _, v := range r.TrafficMB.Values {
		fromSeries += v * 1e6 * float64(cfg.Topo.NumNodes())
	}
	if math.Abs(fromSeries-r.TotalCrossBytes)/r.TotalCrossBytes > 1e-9 {
		t.Fatalf("series and total disagree: %v vs %v", fromSeries, r.TotalCrossBytes)
	}
}
