package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/replace"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

const (
	shiftSteps = 48
	// shiftSplice is the batch at which WikiText splices to Alpaca. At
	// 12 the controller fires but cost-skips (the re-solve saves too
	// little per step to pay for the move); 10, 14 and 16 each migrate
	// once.
	shiftSplice = 14
)

// shiftConfig is the drift-triggered controller of TestShiftReplacesOnce:
// a threshold the splice crosses, and a cooldown that outlasts the run.
var shiftConfig = replace.Config{DriftThreshold: 0.09, CooldownSteps: 24}

// shiftCheckpoint pretrains the splice's checkpoint once for both runs.
var shiftCheckpoint = sync.OnceValues(func() ([]byte, error) {
	pre := trainer.DefaultPretrain()
	pre.Steps = 60
	m, grid, err := trainer.BuildPretrained(moe.Config{Vocab: data.VocabSize, D: 16, Heads: 2, Hidden: 24, Layers: 2, Experts: 6, TopK: 2}, 8000, pre)
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(m, grid)
})

// shiftMove is one executed migration: its step, its size, and the drift
// read right after it.
type shiftMove struct {
	step, experts int
	drift         float64
}

// shiftRun fine-tunes one deterministic 4-worker deployment through the
// WikiText→Alpaca splice, with the controller when controlled. It returns
// the system, the run, the executed migrations, and the cumulative
// cross-node bytes after every step.
func shiftRun(t *testing.T, controlled bool) (*System, *trainer.Finetuner, []shiftMove, []int64) {
	t.Helper()
	raw, err := shiftCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	model, grid, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Cfg
	model.BindLocalExperts(grid)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)
	wiki, alpaca := data.WikiText(6000), data.Alpaca(6000)
	stats, err := trainer.Profile(model, wiki, 8, 4, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes of two devices, capacity tight enough that 4 of the 12
	// experts sit across the slow link: which ones is decided by the
	// routing distribution, so the splice moves the optimum.
	topo := cluster.Uniform(4, 2, 4, 10*cluster.GB, 1*cluster.GB)
	handle := obs.NewHandle(obs.Config{Workers: 4, Layers: cfg.Layers, Experts: cfg.Experts})
	handle.Drift = obs.NewDriftMonitor(cfg.Layers, cfg.Experts, 0.1) // reacts within a few steps of the splice
	sys, err := Deploy(model, grid, Options{
		Topo: topo, Stats: stats, LoRA: lora, RoutingsPerStep: 4 * 32 * 2, Obs: handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	sys.Supervisor(broker.SupervisorConfig{})
	var migrations []shiftMove
	if controlled {
		ctrl, err := sys.ReplaceController(shiftConfig)
		if err != nil {
			t.Fatal(err)
		}
		ctrl.OnReplace = func(step, moved int, _, _ float64) {
			migrations = append(migrations, shiftMove{step, moved, handle.Drift.MaxDrift()})
		}
	}
	ft, err := sys.Finetuner(data.NewSwitchBatcher(data.NewBatcher(wiki, 4, 32, 7), data.NewBatcher(alpaca, 4, 32, 8), shiftSplice))
	if err != nil {
		t.Fatal(err)
	}
	var cum []int64
	ft.OnStep = func(step int) error {
		cum = append(cum, sys.Exec.Counters.CrossNodeBytes())
		return sys.StepBoundary(step)
	}
	if err := ft.Run(shiftSteps, nil); err != nil {
		t.Fatal(err)
	}
	return sys, ft, migrations, cum
}

// TestShiftReplacesOnce is the live re-placement loop end to end: profiled
// on WikiText, the run splices to Alpaca, and the drift-triggered
// controller must fire once, at step 28, and move 8 experts, re-anchoring
// the drift baseline (drift 0 right after the move); the live placement
// must then price within 10% of a fresh solve over the shifted P̂, the
// drift stay ≤ 0.15, and the loss series equal the uncontrolled run's to
// the bit. Where the numeric pins run, the measured figures are pinned
// too.
func TestShiftReplacesOnce(t *testing.T) {
	_, ref, _, _ := shiftRun(t, false)
	sys, ft, migrations, cum := shiftRun(t, true)
	if len(migrations) != 1 || migrations[0] != (shiftMove{28, 8, 0}) {
		t.Fatalf("migrations (step, experts, drift after) %v, want one of 8 experts at step 28 that re-anchors the drift to 0", migrations)
	}
	if !testutil.BitEqualSlices(ref.Losses.Values, ft.Losses.Values) {
		t.Fatalf("live migration perturbed the loss series:\nwithout = %v\nwith    = %v", ref.Losses.Values, ft.Losses.Values)
	}
	prob := *sys.Problem
	prob.P = sys.Obs.Drift.Phat()
	d, err := replace.Decide(&prob, sys.Exec.Assignment(), shiftConfig)
	if err != nil {
		t.Fatal(err)
	}
	ratio, drift := d.Current/d.Proposed, sys.Obs.Drift.MaxDrift()
	if ratio > 1.10 || drift > 0.15 {
		t.Fatalf("placement %.3f× a fresh solve (want ≤ 1.10), max drift %.4f after the move (want ≤ 0.15: baseline re-anchored)", ratio, drift)
	}
	if testing.Short() || testutil.RaceEnabled || runtime.GOARCH != "amd64" {
		return
	}
	// Average cross-node bytes per step over [from, to); the migration
	// step's transfer counts in the drift window.
	moved := migrations[0].step + 1
	perStep := func(from, to int) float64 {
		var start int64
		if from > 0 {
			start = cum[from-1]
		}
		return float64(cum[to-1]-start) / float64(to-from)
	}
	got := []float64{perStep(0, shiftSplice), perStep(shiftSplice, moved), perStep(moved, shiftSteps), ratio, drift}
	want := []float64{6976, 5794.133333333333, 3698.5263157894738, 0.8322262746575292, 0.04925319616245002}
	if !testutil.BitEqualSlices(got, want) {
		t.Fatalf("cross-node bytes/step before, during and after the drift, fresh-solve ratio, max drift = %v, pinned %v", got, want)
	}
}
