package core

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

// TestRebalanceRefreshesDriftBaseline is the regression test for the
// stale-plumbing bug: System.Rebalance used to migrate experts and leave
// the drift monitor anchored to the ORIGINAL placement-time P and the
// predicted-comm gauge at the original objective value — so right after
// a rebalance the staleness signal reported the drift the rebalance had
// just resolved.
func TestRebalanceRefreshesDriftBaseline(t *testing.T) {
	m, grid, cfg := buildCheckpoint(t)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
	trainer.PrepareForFinetune(m, grid, lora)
	corpus := data.Shakespeare(4000)
	stats, err := trainer.Profile(m, corpus, 4, 2, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	topo := testTopology()
	h := obs.NewHandle(obs.Config{Workers: topo.NumWorkers(), Layers: cfg.Layers, Experts: cfg.Experts})
	h.Drift = obs.NewDriftMonitor(cfg.Layers, cfg.Experts, 0.5) // reacts fast: a few skewed steps show drift
	sys, err := Deploy(m, grid, Options{
		Topo:     topo,
		Strategy: placement.Sequential{}, // non-optimized start so the re-solve moves experts
		Stats:    stats,
		LoRA:     lora,
		Obs:      h,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Pollute the drift estimate: all routings hit expert 0.
	skew := make([]int, 32)
	for step := 0; step < 5; step++ {
		h.StartStep(step)
		for l := 0; l < cfg.Layers; l++ {
			h.RecordRouting(l, [][]int{skew})
		}
		h.EndStep()
	}
	if testutil.BitEqual(h.Drift.MaxDrift(), 0) {
		t.Fatal("setup: skewed routing produced no drift")
	}
	predBefore, _ := h.Drift.CommGauges()

	moved, err := sys.Rebalance(stats, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing; test needs a layout change")
	}

	// Baseline re-anchored: the drift accumulated against the OLD
	// placement must be gone.
	if d := h.Drift.MaxDrift(); !testutil.BitEqual(d, 0) {
		t.Fatalf("MaxDrift = %v after rebalance, want 0 (baseline refreshed)", d)
	}
	// Predicted comm tracks the NEW assignment's objective, not the
	// Sequential layout's.
	predAfter, _ := h.Drift.CommGauges()
	wantM, err := placement.Evaluate(sys.Problem, sys.Exec.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(predAfter, wantM.CommTime) {
		t.Fatalf("predicted comm = %v, want new objective %v", predAfter, wantM.CommTime)
	}
	if testutil.BitEqual(predAfter, predBefore) {
		t.Fatalf("predicted comm unchanged (%v) across a layout-changing rebalance", predBefore)
	}
}

// TestBitDepthResolvedOnce pins the cost-model unification: the resolved
// bit depth reaches both the executor's byte accounting and the
// placement objective, for the default and an explicit override alike.
func TestBitDepthResolvedOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bitDepth  int
		wantDepth int
	}{
		{"default", 0, DefaultBitDepth},
		{"explicit-8bit", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, grid, cfg := buildCheckpoint(t)
			lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
			trainer.PrepareForFinetune(m, grid, lora)
			stats, err := trainer.Profile(m, data.Shakespeare(4000), 4, 2, 16, 6)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Deploy(m, grid, Options{
				Topo: testTopology(), Stats: stats, LoRA: lora, BitDepth: tc.bitDepth,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			if sys.BitDepth != tc.wantDepth {
				t.Fatalf("resolved BitDepth = %d, want %d", sys.BitDepth, tc.wantDepth)
			}
			wantBPV := float64(tc.wantDepth) / 8
			if !testutil.BitEqual(sys.Exec.BytesPerValue, wantBPV) {
				t.Fatalf("executor BytesPerValue = %v, want %v", sys.Exec.BytesPerValue, wantBPV)
			}
			wantBPT := float64(tc.wantDepth) * float64(cfg.D) / 8
			if !testutil.BitEqual(sys.Problem.BytesPerToken, wantBPT) {
				t.Fatalf("objective BytesPerToken = %v, want %v", sys.Problem.BytesPerToken, wantBPT)
			}
		})
	}
}

// TestFailoverAfterRebalanceUsesRefreshedProblem: the supervisor (and the
// controller) are handed System.Problem by pointer, and Rebalance used to
// replace that pointer — so a failover after a rebalance ran
// placement.Repair and re-anchored the predicted-comm gauge over the
// pre-rebalance P and BytesPerToken. Rebalance now refreshes the problem
// in place: after rebalancing onto shifted stats at another bit depth and
// losing a worker, the gauge is the refreshed problem's objective for the
// repaired assignment, to the bit.
func TestFailoverAfterRebalanceUsesRefreshedProblem(t *testing.T) {
	m, grid, cfg := buildCheckpoint(t)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
	trainer.PrepareForFinetune(m, grid, lora)
	stats, err := trainer.Profile(m, data.Shakespeare(4000), 4, 2, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 4 × 3 workers: two survivors can host all 8 experts.
	topo := cluster.Uniform(3, 1, 4, 100*cluster.GB, 1*cluster.GB)
	h := obs.NewHandle(obs.Config{Workers: topo.NumWorkers(), Layers: cfg.Layers, Experts: cfg.Experts})
	sys, err := Deploy(m, grid, Options{Topo: topo, Strategy: placement.Sequential{}, Stats: stats, LoRA: lora, Obs: h})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sup := sys.Supervisor(broker.SupervisorConfig{})

	shifted := moe.NewAccessStats(cfg.Layers, cfg.Experts)
	for l := range shifted.Counts {
		for e := range shifted.Counts[l] {
			shifted.Counts[l][e] = int64(1 + 20*e*e)
		}
	}
	if _, err := sys.Rebalance(shifted, nil, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := sup.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	victim := sys.Exec.Assignment().Worker[0][cfg.Experts-1]
	sys.Exec.MarkDead(victim)
	restore := func(next *placement.Assignment) error { return sys.Exec.RestoreExperts(sup.Latest().Entries, next) }
	if err := sup.Recover(sys.Exec.Assignment(), restore); err != nil {
		t.Fatal(err)
	}
	if loads := sys.Exec.Assignment().Loads(topo.NumWorkers()); loads[victim] != 0 {
		t.Fatalf("setup: worker %d still hosts %d experts after the failover", victim, loads[victim])
	}
	want, err := placement.Evaluate(sys.Problem, sys.Exec.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if pred, _ := h.Drift.CommGauges(); !testutil.BitEqual(pred, want.CommTime) {
		t.Fatalf("predicted comm = %v after the failover, want %v: the refreshed problem's objective for the repaired assignment",
			pred, want.CommTime)
	}
}
